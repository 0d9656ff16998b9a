//go:build linux && (amd64 || arm64)

package nettrans

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"

	"ssbyz/internal/protocol"
)

// Batched UDP syscalls via sendmmsg/recvmmsg, straight off the stdlib
// syscall package (no x/net dependency): one kernel crossing moves a
// whole coalescer flush out, or a whole burst of datagrams in. The
// sockets stay in the runtime's netpoller — the syscalls are issued
// through RawConn Read/Write callbacks, so EAGAIN parks the goroutine
// on the poller like any other socket op instead of spinning.
//
// The path is gated to IPv4 sockets with all-IPv4 peers (every manifest
// this repo produces is loopback IPv4); anything else falls back to the
// portable WriteToUDPAddrPort/ReadFromUDPAddrPort loop in socket.go,
// which is behaviourally identical. Only little-endian platforms are
// tagged in, so the network-byte-order port swaps below are fixed.

const mmsgEnabled = true

// rawAddr is one peer's precomputed kernel sockaddr.
type rawAddr struct {
	sa syscall.RawSockaddrInet4
}

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-filled
// per-datagram byte count, padded to the struct's 8-byte alignment.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// sendChunk / recvBatch size the syscall vectors. A coalescer flush is
// at most n-1 datagrams, so 16 covers the common cluster sizes in one
// syscall; the receive batch is larger because bursts aggregate across
// senders.
const (
	sendChunk = 16
	recvBatch = 32
)

// mmsgSend is the sendmmsg call state. Only the coalescer's flush, on
// the event loop, sends through it, so one instance per transport is
// enough: the vectors, the raw connection and the syscall callback are
// built once, and a flush allocates nothing.
type mmsgSend struct {
	rc   syscall.RawConn
	hdrs [sendChunk]mmsghdr
	iovs [sendChunk]syscall.Iovec
	// One call covers hdrs[head:end]; it reports n sent and errno.
	head, end int
	n         uintptr
	errno     syscall.Errno
	call      func(fd uintptr) bool // s.sendmmsg, bound once
}

func (s *mmsgSend) sendmmsg(fd uintptr) bool {
	s.n, _, s.errno = syscall.Syscall6(sysSENDMMSG, fd,
		uintptr(unsafe.Pointer(&s.hdrs[s.head])), uintptr(s.end-s.head), 0, 0, 0)
	return s.errno != syscall.EAGAIN
}

// initMMsg decides whether the fast path applies and precomputes the
// peer sockaddrs.
func (t *udpTransport) initMMsg() {
	la, ok := t.conn.LocalAddr().(*net.UDPAddr)
	if !ok || la.IP.To4() == nil {
		return // AF_INET6 socket: sockaddr_in names would be rejected
	}
	rc, err := t.conn.SyscallConn()
	if err != nil {
		return
	}
	t.rawPeers = make([]rawAddr, len(t.peers))
	for i, ap := range t.peers {
		if !ap.Addr().Is4() {
			return // mixed family: stay on the portable path
		}
		var sa syscall.RawSockaddrInet4
		sa.Family = syscall.AF_INET
		sa.Addr = ap.Addr().As4()
		p := ap.Port()
		sa.Port = uint16(p>>8) | uint16(p&0xff)<<8 // host → network byte order
		t.rawPeers[i].sa = sa
	}
	t.out = &mmsgSend{rc: rc}
	t.out.call = t.out.sendmmsg
	t.mmsgOK = true
}

// sendMMsg transmits one datagram per destination with as few sendmmsg
// calls as possible. Fire-and-forget like send: a refused or failed
// datagram is skipped, not retried — datagram loss is in the model.
func (t *udpTransport) sendMMsg(dsts []protocol.NodeID, frames [][]byte) {
	s := t.out
	for off := 0; off < len(dsts); off += sendChunk {
		m := len(dsts) - off
		if m > sendChunk {
			m = sendChunk
		}
		for i := 0; i < m; i++ {
			fr := frames[off+i]
			s.iovs[i].Base = &fr[0]
			s.iovs[i].Len = uint64(len(fr))
			sa := &t.rawPeers[dsts[off+i]].sa
			s.hdrs[i] = mmsghdr{}
			s.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(sa))
			s.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(*sa))
			s.hdrs[i].hdr.Iov = &s.iovs[i]
			s.hdrs[i].hdr.Iovlen = 1
		}
		s.head, s.end = 0, m
		for s.head < m {
			if s.rc.Write(s.call) != nil {
				return // socket closed
			}
			switch {
			case s.errno == syscall.EINTR:
				// retry
			case s.errno != 0:
				s.head++ // the head datagram was refused (async ICMP etc.): drop it
			default:
				s.head += int(s.n)
			}
		}
	}
}

// recvLoopMMsg is the batched receive loop: it replaces the portable
// loop entirely when the fast path applies (returning true), draining
// up to recvBatch datagrams per syscall into the loop's own read slots
// and dispatching a copy of each to its ingest shard.
func (t *udpTransport) recvLoopMMsg() bool {
	if !t.mmsgOK {
		return false
	}
	rc, err := t.conn.SyscallConn()
	if err != nil {
		return false
	}
	var (
		hdrs  [recvBatch]mmsghdr
		iovs  [recvBatch]syscall.Iovec
		names [recvBatch]syscall.RawSockaddrInet6
	)
	slots := t.slots
	for {
		for i := 0; i < recvBatch; i++ {
			iovs[i].Base = &slots[i*recvBufSize]
			iovs[i].Len = recvBufSize
			hdrs[i] = mmsghdr{}
			hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&names[i]))
			hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(names[i]))
			hdrs[i].hdr.Iov = &iovs[i]
			hdrs[i].hdr.Iovlen = 1
		}
		var n uintptr
		var errno syscall.Errno
		rerr := rc.Read(func(fd uintptr) bool {
			n, _, errno = syscall.Syscall6(sysRECVMMSG, fd,
				uintptr(unsafe.Pointer(&hdrs[0])), recvBatch, 0, 0, 0)
			return errno != syscall.EAGAIN
		})
		if rerr != nil {
			return true // socket closed; the loop ran to completion
		}
		if errno != 0 {
			if errno == syscall.EINTR {
				continue
			}
			return true // unexpected kernel error: treat like a closed socket
		}
		for i := 0; i < int(n); i++ {
			src, ok := sockaddrToAddrPort(&names[i])
			if !ok {
				continue
			}
			t.dispatch(slots[i*recvBufSize:i*recvBufSize+int(hdrs[i].n)], src)
		}
	}
}

// sockaddrToAddrPort converts a kernel-filled source sockaddr (the
// buffer is inet6-sized; the kernel writes whichever family the socket
// speaks) back to a netip.AddrPort, unmapped for comparison against the
// manifest addresses.
func sockaddrToAddrPort(sa *syscall.RawSockaddrInet6) (netip.AddrPort, bool) {
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		port := sa4.Port>>8 | sa4.Port<<8 // network → host byte order
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), port), true
	case syscall.AF_INET6:
		port := sa.Port>>8 | sa.Port<<8
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), port), true
	}
	return netip.AddrPort{}, false
}
