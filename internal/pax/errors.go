package pax

import (
	"errors"
	"strings"

	"paxq/internal/dist"
)

// ErrOverloaded is returned by an Engine whose admission limit is reached:
// the evaluation was shed (no queueing configured) or timed out waiting
// for an in-flight slot. The query was never started — no site holds any
// state for it — so the caller may safely retry later.
var ErrOverloaded = errors.New("pax: engine overloaded")

// ErrSessionLimit is returned by a Site that cannot admit a new query
// session because it already retains the per-query state of maxSessions
// in-flight (or abandoned but not yet expired) queries. Unlike the old
// behavior — silently evicting the oldest session, making some *other*
// in-flight query fail a later stage with a confusing "no session" error —
// the rejection is explicit, immediate and attributed to the query that
// could not be admitted. Engine-level admission control (ErrOverloaded)
// exists to keep serving deployments away from this limit.
var ErrSessionLimit = errors.New("pax: site session limit reached")

// ErrEditConflict is returned by a Site's edit handler when the hosted
// fragment's version matches neither the edit's base version nor its
// successor (the idempotent-retry case): the replica has diverged from the
// engine's serialized edit history. Retrying cannot help — the condition is
// a deployment bug (an out-of-band mutation or a mixed-history restore),
// not a transient fault.
var ErrEditConflict = errors.New("pax: edit version conflict")

// Session-loss message fragments. Site errors cross the TCP transport as
// respEnvelope strings, so after one hop the coordinator cannot classify
// them with errors.Is — the stable message text below is part of the
// coordinator↔site protocol, matched by classifyStageError (and pinned by
// tests). The errors.Is checks still serve the in-process transport,
// which preserves wrap chains.
const (
	noSessionMsg    = "no session for query"
	sessionLimitMsg = "site session limit reached"
	// outOfOrderMsg is the selection stage's complaint when a qualified
	// query's session holds no Stage-1 state: the site lost the session
	// its qualifier stage opened (it restarted between stages), and the
	// selection request opened a fresh one.
	outOfOrderMsg = "arrived out of order (no qualifier state)"
)

// classifyStageError reports whether the failover layer may run the query
// again after err failed one of its stage calls, with the failed group
// rotated to its next replica. That holds when the site is unreachable
// (wraps dist.ErrSiteUnavailable), cannot admit the session
// (ErrSessionLimit), or answered but holds no session for the query, or
// not the one this run opened (it restarted, or swept the session,
// between stages). Everything else — handler rejections, context expiry,
// a closed transport — is permanent: retrying would not help, or is not
// allowed to (the caller's deadline is the caller's budget).
func classifyStageError(err error) bool {
	if err == nil {
		return false
	}
	if dist.Retriable(err) || errors.Is(err, ErrSessionLimit) {
		return true
	}
	msg := err.Error()
	return strings.Contains(msg, sessionLimitMsg) || strings.Contains(msg, noSessionMsg) || strings.Contains(msg, outOfOrderMsg)
}
