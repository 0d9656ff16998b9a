package initaccept

import (
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// This file exposes state-injection hooks used exclusively by the
// transient-fault injector and white-box tests: a transient failure may
// leave every variable of Fig. 2 holding an arbitrary value, and
// self-stabilization must recover from all of them.

// InjectIValue installs an arbitrary i_values[G,m] recording time.
func (ia *Instance) InjectIValue(m protocol.Value, rec simtime.Local) {
	ia.iValues[m] = rec
}

// InjectLastG installs an arbitrary lastq(G) update.
func (ia *Instance) InjectLastG(t simtime.Local) { ia.lastG.inject(t) }

// InjectLastGM installs an arbitrary lastq(G,m) update.
func (ia *Instance) InjectLastGM(m protocol.Value, t simtime.Local) {
	ia.gm(m).inject(t)
}

// InjectReady installs an arbitrary ready_{G,m} flag set time.
func (ia *Instance) InjectReady(m protocol.Value, t simtime.Local) {
	ia.ready[m] = t
	ia.noteValue(m)
}

// InjectRecord installs a spurious support, approve or ready reception
// record; other kinds are ignored.
func (ia *Instance) InjectRecord(kind protocol.MsgKind, m protocol.Value, sender protocol.NodeID, at simtime.Local) {
	vs := ia.noteValue(m)
	if vs.window(kind) != nil {
		ia.record(vs, kind, sender, at)
	}
}

// InjectPending installs a phantom pending invocation.
func (ia *Instance) InjectPending(m protocol.Value, at simtime.Local) {
	ia.pending[m] = at
	ia.noteValue(m)
}

// LogLen reports the number of stored reception records (for tests).
func (ia *Instance) LogLen() int {
	n := 0
	for _, vs := range ia.act {
		for _, w := range vs.windows() {
			n += w.Len()
		}
	}
	return n
}
