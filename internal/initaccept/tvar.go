package initaccept

import (
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// updates tracks the update history of one of the paper's timed variables
// (lastq(G) or lastq(G,m)). Every assignment in Fig. 2 stores the current
// local time, so the variable's value and its update instant coincide; the
// cleanup block then expires the variable when its stored time falls
// outside [τq − expiry, τq].
//
// Line K1 additionally needs the variable's state d time units in the past
// ("lastq(G,m) = ⊥ at τq − d"), so a short history of update times is kept
// rather than just the newest.
type updates struct {
	times []simtime.Local // ascending update times
}

// touch records an update at now. It returns true when this changed state
// (i.e. now is not already the newest recorded time).
func (u *updates) touch(now simtime.Local) bool {
	if n := len(u.times); n > 0 && u.times[n-1] == now {
		return false
	}
	u.times = append(u.times, now)
	return true
}

// definedAt reports whether the variable held an unexpired value at local
// time t: some update u ≤ t exists with t − u ≤ expiry. Future-stamped
// updates (transient residue) never count.
func (u *updates) definedAt(t simtime.Local, expiry simtime.Duration, p protocol.Params) bool {
	for i := len(u.times) - 1; i >= 0; i-- {
		age := p.Sub(t, u.times[i])
		if age < 0 {
			continue // update after t (or future garbage)
		}
		return age <= expiry
	}
	return false
}

// defined reports whether the variable is non-⊥ right now.
func (u *updates) defined(now simtime.Local, expiry simtime.Duration, p protocol.Params) bool {
	return u.definedAt(now, expiry, p)
}

// newest returns the latest non-future update time.
func (u *updates) newest(now simtime.Local, p protocol.Params) (simtime.Local, bool) {
	for i := len(u.times) - 1; i >= 0; i-- {
		if p.Sub(now, u.times[i]) >= 0 {
			return u.times[i], true
		}
	}
	return 0, false
}

// prune drops updates older than keep, and future garbage. The caller's
// keep exceeds the variable's expiry, so definedAt stays answerable for
// recent queries. It filters in place: every sweep prunes every history.
func (u *updates) prune(now simtime.Local, keep simtime.Duration, p protocol.Params) {
	kept := u.times[:0]
	for _, t := range u.times {
		age := p.Sub(now, t)
		if age < 0 || age > keep {
			continue
		}
		kept = append(kept, t)
	}
	u.times = kept
}

// inject installs an arbitrary update time (transient-fault injector only).
func (u *updates) inject(t simtime.Local) { u.times = append(u.times, t) }
