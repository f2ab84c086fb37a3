package dist

import (
	"fmt"
	"sync"
	"time"
)

// FaultAction is the kind of failure a SiteFault injects.
type FaultAction int

const (
	// FaultError fails one call with ErrSiteUnavailable.
	FaultError FaultAction = iota
	// FaultDrop fails one call as if the request were dropped on the
	// wire: the caller sees ErrSiteUnavailable, the site never sees the
	// request. Indistinguishable from FaultError at the caller — kept
	// distinct so schedules read like the outage they model.
	FaultDrop
	// FaultDelay stalls one call by Delay, then lets it through.
	FaultDelay
	// FaultKill takes the site down: the faulted call and the next Down
	// calls fail with ErrSiteUnavailable, then the site "restarts" —
	// OnRestart fires once (the harness wires it to wipe the site's
	// caches and previous fragment versions, as a real process restart
	// would) and calls
	// flow again.
	FaultKill
)

// String names the action for schedule dumps and test failures.
func (a FaultAction) String() string {
	switch a {
	case FaultError:
		return "error"
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultKill:
		return "kill"
	}
	return fmt.Sprintf("FaultAction(%d)", int(a))
}

// SiteFault schedules one fault: when the site receives its Call-th call
// (1-based, counted per site over the plan's lifetime), Action fires.
type SiteFault struct {
	Site   SiteID
	Call   int
	Action FaultAction
	// Delay is the stall for FaultDelay.
	Delay time.Duration
	// Down is how many calls after the killing one the site stays dead
	// for FaultKill. 0 means the site is back for the very next call.
	Down int
}

// FaultStats counts what a plan actually injected.
type FaultStats struct {
	Errors   int // calls failed by FaultError
	Drops    int // calls failed by FaultDrop
	Delays   int // calls stalled by FaultDelay
	Kills    int // FaultKill faults fired
	DeadHits int // calls failed because the site was down after a kill
	Restarts int // OnRestart invocations
}

// FaultPlan is a deterministic failure schedule for Local.FaultHook:
// faults fire by per-site call count, never by wall clock, so the same
// plan over the same query sequence injects the same failures every run
// regardless of scheduling. Safe for concurrent calls (a stage's
// fan-out hits the hook from many goroutines).
type FaultPlan struct {
	// OnRestart, when set, runs synchronously inside the first call
	// after a killed site's down window ends, before that call is let
	// through — the moment the "restarted process" is back. The harness
	// uses it to wipe the site's caches, as a real restart would. Set
	// it before installing the plan.
	OnRestart func(SiteID)

	mu     sync.Mutex
	sched  map[SiteID][]SiteFault
	calls  map[SiteID]int
	downTo map[SiteID]int // per-site call count through which the site is dead
	stats  FaultStats
}

// NewFaultPlan builds a plan from an explicit schedule. Faults for the
// same (site, call) fire in schedule order until one fails the call.
func NewFaultPlan(faults ...SiteFault) *FaultPlan {
	p := &FaultPlan{
		sched:  make(map[SiteID][]SiteFault),
		calls:  make(map[SiteID]int),
		downTo: make(map[SiteID]int),
	}
	for _, f := range faults {
		p.sched[f.Site] = append(p.sched[f.Site], f)
	}
	return p
}

// Hook is the Local.FaultHook implementation. It charges one call to the
// site's counter and applies any scheduled fault.
func (p *FaultPlan) Hook(to SiteID, req any) error {
	p.mu.Lock()
	p.calls[to]++
	n := p.calls[to]
	if until, down := p.downTo[to]; down {
		if n <= until {
			p.stats.DeadHits++
			p.mu.Unlock()
			return siteUnavailable(to, fmt.Errorf("injected: site down (call %d of outage through %d)", n, until))
		}
		delete(p.downTo, to)
		p.stats.Restarts++
		restart := p.OnRestart
		p.mu.Unlock()
		if restart != nil {
			restart(to)
		}
		p.mu.Lock()
	}
	var delay time.Duration
	var failErr error
	for _, f := range p.sched[to] {
		if f.Call != n {
			continue
		}
		switch f.Action {
		case FaultError:
			p.stats.Errors++
			failErr = siteUnavailable(to, fmt.Errorf("injected: error at call %d", n))
		case FaultDrop:
			p.stats.Drops++
			failErr = siteUnavailable(to, fmt.Errorf("injected: request dropped at call %d", n))
		case FaultDelay:
			p.stats.Delays++
			delay += f.Delay
		case FaultKill:
			p.stats.Kills++
			p.downTo[to] = n + f.Down
			failErr = siteUnavailable(to, fmt.Errorf("injected: site killed at call %d", n))
		}
		if failErr != nil {
			break
		}
	}
	p.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return failErr
}

// Stats returns a snapshot of what fired so far.
func (p *FaultPlan) Stats() FaultStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
