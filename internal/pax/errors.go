package pax

import (
	"errors"
	"strings"

	"paxq/internal/dist"
)

// ErrOverloaded is returned by an Engine whose admission limit is reached:
// the evaluation was shed. The query was never started — no site saw it —
// so the caller may safely retry later.
var ErrOverloaded = errors.New("pax: engine overloaded")

// ErrVersionSkew is returned by a Site asked to read a fragment at a
// version it does not hold: an earlier stage of the query read a version
// the site has since edited past twice (a site keeps the current and the
// previous version of each fragment), one a restart lost, or one it never
// held. The coordinator runs the query again, which reads the versions
// current then.
var ErrVersionSkew = errors.New("pax: " + versionSkewMsg)

// ErrBadStageRequest is returned by a Site for a request it cannot serve
// whatever its state: one of an unknown type, one naming a fragment the
// site does not host, or one whose fragment versions are misaligned with
// its fragments — a coordinator built for another deployment, or a
// hostile peer. Running the query again sends the same request, so it is
// not retried.
var ErrBadStageRequest = errors.New("pax: bad stage request")

// ErrEditConflict is returned by a Site's edit handler when the hosted
// fragment's version matches neither the edit's base version nor its
// successor (the idempotent-retry case): the replica has diverged from the
// engine's serialized edit history. Retrying cannot help — the condition is
// a deployment bug (an out-of-band mutation or a mixed-history restore),
// not a transient fault.
var ErrEditConflict = errors.New("pax: edit version conflict")

// versionSkewMsg is ErrVersionSkew's text. Site errors cross the TCP
// transport as respEnvelope strings, so after one hop the coordinator
// cannot classify them with errors.Is: the text is part of the
// coordinator↔site protocol, matched by classifyStageError. The errors.Is
// check still serves the in-process transport, which preserves wrap
// chains.
const versionSkewMsg = "fragment version skew"

// classifyStageError reports whether the failover layer may run the query
// again after err failed one of its stage calls, with the failed group
// rotated to its next replica. That holds when the site is unreachable
// (wraps dist.ErrSiteUnavailable) or no longer holds a fragment version
// an earlier stage read (ErrVersionSkew). Everything else — handler
// rejections, context expiry, a closed transport — is permanent: retrying
// would not help, or is not allowed to (the caller's deadline is the
// caller's budget).
func classifyStageError(err error) bool {
	if err == nil {
		return false
	}
	return dist.Retriable(err) || errors.Is(err, ErrVersionSkew) || strings.Contains(err.Error(), versionSkewMsg)
}
