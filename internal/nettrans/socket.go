package nettrans

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"

	"ssbyz/internal/protocol"
	"ssbyz/internal/wire"
)

// This file holds the two socket implementations behind NetNode: the UDP
// datagram transport (coalesced frames per datagram, source-address
// sender authentication, kernel-level loss allowed) and the TCP stream
// transport (self-delimiting frames on long-lived per-peer connections,
// hello-based authentication, lossless). Both feed decoded containers
// into NetNode.handleBatch; everything protocol-visible is identical.
//
// The UDP receive side is the other half of the wire-rate hot path
// (DESIGN.md §11; batch.go is the send half): datagrams are read into
// the reader's slots (recvmmsg in batches where the platform supports it
// — see socket_mmsg_linux.go), copied into recycled ingest buffers and
// handed to per-source ingest shards, so decode, authentication, the
// anti-replay check and chaos accounting run off the socket goroutine
// while the kernel keeps filling the slots. Sharding by source address
// preserves per-link FIFO order, which the bounded-delay model assumes,
// and gives each sender's anti-replay window exactly one goroutine: a
// container is admitted only from its sender's manifest address, so
// only that address's shard ever opens the window.

// Socket is a bound-but-idle listen socket. Binding is split from
// starting so a cluster can bind every node first (learning ephemeral
// ports) and hand the full peer table to each node afterwards.
type Socket struct {
	transport string
	udp       *net.UDPConn
	tcp       net.Listener
}

// ListenSocket binds addr for the given transport ("" defaults to UDP;
// use "127.0.0.1:0" for an ephemeral loopback port).
func ListenSocket(transport, addr string) (*Socket, error) {
	if transport == "" {
		transport = TransportUDP
	}
	switch transport {
	case TransportUDP:
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("nettrans: resolve %q: %w", addr, err)
		}
		conn, err := net.ListenUDP("udp", ua)
		if err != nil {
			return nil, fmt.Errorf("nettrans: listen udp %q: %w", addr, err)
		}
		// Broadcast waves land n² datagrams nearly simultaneously; a
		// roomy kernel buffer keeps a briefly descheduled receiver from
		// turning a burst into loss. Best-effort (the OS may cap it).
		_ = conn.SetReadBuffer(4 << 20)
		return &Socket{transport: TransportUDP, udp: conn}, nil
	case TransportTCP:
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("nettrans: listen tcp %q: %w", addr, err)
		}
		return &Socket{transport: TransportTCP, tcp: ln}, nil
	default:
		return nil, fmt.Errorf("nettrans: unknown transport %q", transport)
	}
}

// Addr returns the bound address.
func (s *Socket) Addr() string {
	switch s.transport {
	case TransportUDP:
		return s.udp.LocalAddr().String()
	case TransportTCP:
		return s.tcp.Addr().String()
	}
	return ""
}

// Close releases the socket (only needed if it was never handed to
// StartWith).
func (s *Socket) Close() {
	if s.udp != nil {
		s.udp.Close()
	}
	if s.tcp != nil {
		s.tcp.Close()
	}
}

// ---- UDP ----

// recvBufSize is the size of one read slot of the socket reader:
// comfortably above the largest datagram the coalescer emits
// (maxBatchBytes plus one frame and the envelope) and the UDP payload
// ceiling.
const recvBufSize = 64 << 10

// ingestBufCap is the starting capacity of an ingest buffer. The reader
// copies each datagram out of its read slot into one, so only the
// datagram's own bytes travel to the shard worker and the slot is read
// into again at once. A live agreement's containers average ~300 bytes;
// a larger datagram grows its buffer, which returns to the free list
// grown.
const ingestBufCap = 1 << 10

// ingestFreeCap bounds the transport's free list of ingest buffers. A
// live agreement keeps a few dozen datagrams in flight per node; a burst
// that holds more returns the excess to the collector on the way back.
const ingestFreeCap = 64

// ingestShardCap bounds the number of ingest shards; more shards than
// cores just adds context switches.
const ingestShardCap = 4

// ingestItem is one received datagram in flight from the socket reader
// to an ingest shard: a copy of its bytes in an ingest buffer (which the
// shard worker owns until it returns it to the free list) and the
// kernel-reported source.
type ingestItem struct {
	buf []byte
	src netip.AddrPort
}

// udpTransport sends and receives datagrams through the node's single
// bound socket; because peers send from their listen socket, a
// datagram's source address equals the manifest address of its sender,
// which is what authenticates the claimed node id.
type udpTransport struct {
	nn    *NetNode
	conn  *net.UDPConn
	peers []netip.AddrPort

	// shards are the inbound per-source queues; free recycles the ingest
	// buffers the socket reader fills and the shard workers drain. It is
	// the transport's own list, not a sync.Pool: a pool is emptied at
	// every collection and the next burst would refill it by allocating.
	shards []chan ingestItem
	free   chan []byte

	// slots are the reader's read slots, recvBufSize each: recvBatch of
	// them on the mmsg path, one otherwise.
	slots []byte

	// mmsg fast path (linux amd64/arm64 only; see socket_mmsg_*.go).
	mmsgOK   bool
	rawPeers []rawAddr
	out      *mmsgSend
}

func newUDPTransport(nn *NetNode, conn *net.UDPConn, peers []string) (*udpTransport, error) {
	t := &udpTransport{nn: nn, conn: conn, peers: make([]netip.AddrPort, len(peers)),
		free: make(chan []byte, ingestFreeCap)}
	for i, p := range peers {
		ua, err := net.ResolveUDPAddr("udp", p)
		if err != nil {
			return nil, fmt.Errorf("nettrans: resolve peer %d %q: %w", i, p, err)
		}
		ap := ua.AddrPort()
		t.peers[i] = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	}
	t.initMMsg()
	// The read slots are allocated here, with the node, not by the reader
	// goroutine when it first runs. They are most of a live cluster's
	// heap, so their allocation drives the collector's start-up cycles,
	// and those must end before traffic starts: a collection inside the
	// first burst holds frames past the d deadline.
	nslots := 1
	if t.mmsgOK {
		nslots = recvBatch
	}
	t.slots = make([]byte, nslots*recvBufSize)
	nshards := runtime.GOMAXPROCS(0)
	if nshards > ingestShardCap {
		nshards = ingestShardCap
	}
	if nshards < 1 {
		nshards = 1
	}
	t.shards = make([]chan ingestItem, nshards)
	for i := range t.shards {
		ch := make(chan ingestItem, 256)
		t.shards[i] = ch
		nn.wg.Add(1)
		go func() {
			defer nn.wg.Done()
			t.ingestLoop(ch)
		}()
	}
	nn.wg.Add(1)
	go func() {
		defer nn.wg.Done()
		t.recvLoop()
	}()
	return t, nil
}

func (t *udpTransport) addr() string { return t.conn.LocalAddr().String() }

func (t *udpTransport) send(to protocol.NodeID, frame []byte) {
	// Fire and forget: a full socket buffer or ICMP-refused peer is
	// message loss, which the protocol tolerates by design.
	_, _ = t.conn.WriteToUDPAddrPort(frame, t.peers[to])
}

// sendBatch implements batchSender: one flush, one datagram per peer,
// and — where the platform provides sendmmsg — one syscall for all of
// them.
func (t *udpTransport) sendBatch(dsts []protocol.NodeID, frames [][]byte) {
	if t.mmsgOK && len(dsts) > 1 {
		t.sendMMsg(dsts, frames)
		return
	}
	for i, to := range dsts {
		t.send(to, frames[i])
	}
}

func (t *udpTransport) close() { t.conn.Close() }

// recvLoop is the socket reader: it reads into its slot and hands a
// copy of each datagram to the ingest shards. When the platform
// mmsg path is available it drains whole batches of datagrams per
// syscall instead.
func (t *udpTransport) recvLoop() {
	defer t.closeShards()
	if t.recvLoopMMsg() {
		return
	}
	buf := t.slots
	for {
		n, src, err := t.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // socket closed
		}
		t.dispatch(buf[:n], netip.AddrPortFrom(src.Addr().Unmap(), src.Port()))
	}
}

// dispatch copies one datagram into an ingest buffer from the free
// list, so the reader's slot is free on return, and routes it to its
// source's shard. The mapping is a pure function of the source address,
// so frames of one link always land on the same shard and per-link FIFO
// order survives the fan-out; the blocking send is deliberate
// backpressure (a slow shard fills its queue, then the kernel buffer,
// then the excess is datagram loss — the failure mode the protocol
// already tolerates).
func (t *udpTransport) dispatch(dg []byte, src netip.AddrPort) {
	var buf []byte
	select {
	case buf = <-t.free:
	default:
		buf = make([]byte, 0, ingestBufCap)
	}
	buf = append(buf[:0], dg...)
	t.shards[t.shardOf(src)] <- ingestItem{buf: buf, src: src}
}

func (t *udpTransport) shardOf(src netip.AddrPort) int {
	if len(t.shards) == 1 {
		return 0
	}
	a16 := src.Addr().As16()
	h := mix64(uint64(src.Port()), binary.LittleEndian.Uint64(a16[8:]), 0, 0)
	return int(h % uint64(len(t.shards)))
}

// closeShards ends the shard workers once the socket reader has exited
// (the reader is the only producer, so closing here is race-free).
func (t *udpTransport) closeShards() {
	for _, ch := range t.shards {
		close(ch)
	}
}

// ingestLoop is one shard worker: decode, authenticate, admit, deliver
// — everything downstream of the socket read — then recycle the buffer.
// The anti-replay window keeps only numbers and the message decoder
// copies what it keeps, and the admitted messages reach the mailbox by
// value, so returning the buffer to the free list here cannot leave
// aliases behind (pinned by TestRecvBufferPoolRace under -race). Each
// worker owns a value cache.
func (t *udpTransport) ingestLoop(ch chan ingestItem) {
	var vals wire.Values
	for it := range ch {
		t.process(it.buf, it.src, &vals)
		select {
		case t.free <- it.buf:
		default: // the list is full: leave the buffer to the collector
		}
	}
}

func (t *udpTransport) process(dg []byte, src netip.AddrPort, vals *wire.Values) {
	f, consumed, err := wire.DecodeFrame(dg)
	if err != nil || consumed != len(dg) {
		t.nn.decDrop.Add(1)
		return
	}
	t.nn.handleBatch(f, t.authenticate(f.From, src), vals)
}

// authenticate checks the datagram's source address against the claimed
// sender's manifest address.
func (t *udpTransport) authenticate(from protocol.NodeID, src netip.AddrPort) bool {
	if from < 0 || int(from) >= len(t.peers) {
		return false
	}
	return t.peers[from] == src
}

// ---- TCP ----

// tcpTransport keeps one lazily-dialed outbound connection per peer
// (frames are self-delimiting, so no extra length prefix is needed) and
// accepts inbound connections whose first frame must be a hello naming
// the peer; subsequent frames are authenticated against that hello and
// the connection's remote IP.
type tcpTransport struct {
	nn    *NetNode
	ln    net.Listener
	peers []string
	out   []*tcpPeer
	// recvMu[id] serializes the readers of sender id's sessions on its
	// anti-replay window: a redial or a rolled incarnation opens a new
	// session while the old one's reader may still run.
	recvMu []sync.Mutex

	// mu guards the inbound set: connections peers dialed to us, which
	// close() must shut down or their read loops would outlive Stop.
	mu      sync.Mutex
	inbound map[net.Conn]struct{}
	closed  bool
}

type tcpPeer struct {
	mu   sync.Mutex
	conn net.Conn
}

func newTCPTransport(nn *NetNode, ln net.Listener, peers []string) (*tcpTransport, error) {
	t := &tcpTransport{nn: nn, ln: ln, peers: peers,
		out: make([]*tcpPeer, len(peers)), recvMu: make([]sync.Mutex, len(peers)),
		inbound: make(map[net.Conn]struct{})}
	for i := range t.out {
		t.out[i] = &tcpPeer{}
	}
	nn.wg.Add(1)
	go func() {
		defer nn.wg.Done()
		t.acceptLoop()
	}()
	return t, nil
}

func (t *tcpTransport) addr() string { return t.ln.Addr().String() }

func (t *tcpTransport) send(to protocol.NodeID, frame []byte) {
	p := t.out[to]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return // no redial during/after close(): the new conn would leak
		}
		conn, err := net.Dial("tcp", t.peers[to])
		if err != nil {
			return // peer down; TCP is lossless only while peers live
		}
		hello := wire.AppendFrame(nil, wire.Frame{
			Kind: wire.FrameHello, From: t.nn.cfg.ID, Epoch: t.nn.epochID,
		})
		if _, err := conn.Write(hello); err != nil {
			conn.Close()
			return
		}
		// close() may have run while we dialed (it holds p.mu per peer, but
		// could have passed this peer before the dial finished): re-check
		// before publishing, or the stored conn would never be closed.
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.mu.Unlock()
		p.conn = conn
	}
	if _, err := p.conn.Write(frame); err != nil {
		p.conn.Close()
		p.conn = nil // redial on next send
	}
}

func (t *tcpTransport) close() {
	t.mu.Lock()
	t.closed = true
	for conn := range t.inbound {
		conn.Close()
	}
	t.mu.Unlock()
	t.ln.Close()
	for _, p := range t.out {
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		p.mu.Unlock()
	}
}

func (t *tcpTransport) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.nn.wg.Add(1)
		go func() {
			defer t.nn.wg.Done()
			defer func() {
				t.mu.Lock()
				delete(t.inbound, conn)
				t.mu.Unlock()
				conn.Close()
			}()
			t.readLoop(conn)
		}()
	}
}

// readLoop parses the self-delimiting frame stream of one inbound
// connection. The first frame must be a hello claiming a node id whose
// manifest IP matches the connection's remote IP (the remote port is
// ephemeral for outbound dials, so only the host is checkable — the
// paper's authenticated-channel assumption at LAN fidelity; production
// deployments would wrap the stream in TLS).
func (t *tcpTransport) readLoop(conn net.Conn) {
	var (
		buf       []byte
		peer      protocol.NodeID = -1
		haveHello                 = false
		vals      wire.Values
	)
	remoteIP := func() net.IP {
		if a, ok := conn.RemoteAddr().(*net.TCPAddr); ok {
			return a.IP
		}
		return nil
	}()
	chunk := make([]byte, 32<<10)
	for {
		n, err := conn.Read(chunk)
		if n > 0 {
			buf = append(buf, chunk[:n]...)
			for {
				f, consumed, derr := wire.DecodeFrame(buf)
				if errors.Is(derr, wire.ErrTruncated) {
					break // need more bytes
				}
				if derr != nil {
					// A corrupt stream cannot be resynchronized; drop it.
					t.nn.decDrop.Add(1)
					return
				}
				buf = buf[consumed:]
				if !haveHello {
					if f.Kind != wire.FrameHello || !t.ipMatches(f.From, remoteIP) {
						t.nn.authDrops.Add(1)
						return
					}
					if f.Epoch != t.nn.expectedEpoch(f.From) {
						// Counted like any frame of a retired incarnation; the
						// session's containers then fail the same check.
						t.nn.epochDrops.Add(1)
					}
					peer = f.From
					haveHello = true
					continue
				}
				// Stream transport, same container: authenticated against the
				// session identity.
				t.recvMu[peer].Lock()
				t.nn.handleBatch(f, f.From == peer, &vals)
				t.recvMu[peer].Unlock()
			}
		}
		if err != nil {
			return
		}
	}
}

// ipMatches checks the claimed sender's manifest host against the
// connection's remote IP.
func (t *tcpTransport) ipMatches(from protocol.NodeID, remote net.IP) bool {
	if from < 0 || int(from) >= len(t.peers) || remote == nil {
		return false
	}
	host, _, err := net.SplitHostPort(t.peers[from])
	if err != nil {
		return false
	}
	want := net.ParseIP(host)
	return want != nil && want.Equal(remote)
}
