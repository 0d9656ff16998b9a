//go:build !linux || (!amd64 && !arm64)

package nettrans

import "ssbyz/internal/protocol"

// Portable stub for platforms without the sendmmsg/recvmmsg fast path:
// the coalescer still packs frames into batch containers (that is where
// most of the win lives — one datagram per burst per peer), but each
// datagram costs one ordinary socket call.

const mmsgEnabled = false

// recvBatch is unused on this platform: mmsgOK is never set, so the
// reader has one slot.
const recvBatch = 1

// rawAddr and mmsgSend are unused on this platform.
type (
	rawAddr  struct{}
	mmsgSend struct{}
)

func (t *udpTransport) initMMsg() {}

func (t *udpTransport) recvLoopMMsg() bool { return false }

func (t *udpTransport) sendMMsg(dsts []protocol.NodeID, frames [][]byte) {
	for i, to := range dsts {
		t.send(to, frames[i])
	}
}
