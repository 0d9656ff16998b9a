package ops

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
)

// epochLead is how far past NewFleet the manifest's epoch (tick 0) sits:
// enough for every daemon of a fleet to start, parse the manifest, and
// bind its socket before the protocol clock starts.
const epochLead = 750 * time.Millisecond

// Fleet launches ssbyz-node daemons on loopback from one generated
// manifest and reaches each over its REST ops plane. It is the process
// Launcher behind ssbyz-cluster -procs's REST fleet.
type Fleet struct {
	nodeBin  string
	manifest string
	dir      string
	epoch    time.Time
	tick     time.Duration
	addrs    []string // protocol addresses, by node id

	mu      sync.Mutex
	procs   map[int]*exec.Cmd
	clients map[int]*Client
	incs    []uint64
}

// NewFleet locates the daemon binary (nodeBin, else a sibling of the
// running executable, else PATH), reserves one loopback port per
// committee slot on the given transport, and writes the manifest with
// its epoch epochLead from now. No daemon starts before Spawn; Close
// kills whatever is still running and removes the manifest. On Linux a
// daemon also gets SIGTERM if the orchestrator dies without closing.
func NewFleet(nodeBin string, pp protocol.Params, transport string, tick time.Duration) (*Fleet, error) {
	bin, err := resolveNodeBin(nodeBin)
	if err != nil {
		return nil, err
	}
	// Reserve one loopback port per node by binding and releasing; the
	// window between release and the daemon's re-bind is the usual
	// ephemeral-port race, acceptable for a loopback topology.
	addrs := make([]string, pp.N)
	for i := range addrs {
		s, err := nettrans.ListenSocket(transport, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = s.Addr()
		s.Close()
	}
	epoch := time.Now().Add(epochLead)
	m := nettrans.Manifest{
		N: pp.N, F: pp.F, D: pp.D,
		TickUS:        tick.Microseconds(),
		Transport:     transport,
		EpochUnixNano: epoch.UnixNano(),
		Nodes:         addrs,
	}
	dir, err := os.MkdirTemp("", "ssbyz-fleet-*")
	if err != nil {
		return nil, err
	}
	manifest := filepath.Join(dir, "cluster.json")
	if err := os.WriteFile(manifest, m.Marshal(), 0o644); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &Fleet{
		nodeBin: bin, manifest: manifest, dir: dir,
		epoch: epoch, tick: tick, addrs: addrs,
		procs:   make(map[int]*exec.Cmd),
		clients: make(map[int]*Client),
		incs:    make([]uint64, pp.N),
	}, nil
}

// Close kills every daemon still running and removes the manifest.
func (fl *Fleet) Close() {
	fl.mu.Lock()
	for _, cmd := range fl.procs {
		_ = cmd.Process.Kill()
	}
	fl.mu.Unlock()
	os.RemoveAll(fl.dir)
}

// Spawn boots one daemon per given slot at the slot's current
// incarnation, all started before any is awaited, and returns once every
// one has published its REST address in its -ops-addr-file. Calling it
// once per slot instead boots the slots one after another.
func (fl *Fleet) Spawn(ids ...int) error {
	fl.mu.Lock()
	incs := append([]uint64(nil), fl.incs...)
	fl.mu.Unlock()
	peerIncs := make([]string, len(incs))
	anyInc := false
	for i, v := range incs {
		peerIncs[i] = fmt.Sprint(v)
		anyInc = anyInc || v != 0
	}
	addrFiles := make([]string, len(ids))
	for i, id := range ids {
		addrFiles[i] = filepath.Join(fl.dir, fmt.Sprintf("ops-%d-%d.addr", id, incs[id]))
		args := []string{
			"-manifest", fl.manifest,
			"-id", fmt.Sprint(id),
			"-ops", "127.0.0.1:0",
			"-ops-addr-file", addrFiles[i],
			"-incarnation", fmt.Sprint(incs[id]),
		}
		if anyInc {
			args = append(args, "-peer-incarnations", strings.Join(peerIncs, ","))
		}
		cmd := exec.Command(fl.nodeBin, args...)
		dieWithParent(cmd)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawn node %d: %w", id, err)
		}
		fl.mu.Lock()
		fl.procs[id] = cmd
		fl.mu.Unlock()
	}

	// The daemon binds its ops listener after sleeping to the shared
	// epoch, so the address file can take until past tick 0 to appear.
	timeout := time.Until(fl.epoch) + 15*time.Second
	for i, id := range ids {
		addr, err := awaitFile(addrFiles[i], timeout)
		if err != nil {
			return fmt.Errorf("node %d ops address: %w", id, err)
		}
		fl.mu.Lock()
		fl.clients[id] = NewClient(addr, nil)
		fl.mu.Unlock()
	}
	return nil
}

// Reincarnate advances slot id's incarnation for its next Spawn (a
// rolling replacement) and returns the new value.
func (fl *Fleet) Reincarnate(id int) uint64 {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	fl.incs[id]++
	return fl.incs[id]
}

// Client is slot id's REST client (nil when the slot is not running).
func (fl *Fleet) Client(id int) *Client {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.clients[id]
}

// WaitExit waits for slot id's process to exit and forgets it; the
// process is killed if it outlives the timeout.
func (fl *Fleet) WaitExit(id int, timeout time.Duration) error {
	fl.mu.Lock()
	cmd := fl.procs[id]
	delete(fl.procs, id)
	delete(fl.clients, id)
	fl.mu.Unlock()
	if cmd == nil {
		return fmt.Errorf("node %d is not running", id)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		_ = cmd.Process.Kill()
		<-done
		return fmt.Errorf("node %d did not exit within %v (killed)", id, timeout)
	}
}

// Probe sends slot from's replay probe, stamped with an old
// incarnation, to slot to's socket from an anonymous UDP source (the
// epoch check runs before source authentication).
func (fl *Fleet) Probe(from, to int, incarnation uint64) error {
	conn, err := net.Dial("udp", fl.addrs[to])
	if err != nil {
		return err
	}
	defer conn.Close()
	epochID := uint64(fl.epoch.UnixNano()) + incarnation
	_, err = conn.Write(ReplayProbe(epochID, protocol.NodeID(from), fl.NowTicks()))
	return err
}

// NowTicks is the wall clock read in manifest ticks since the epoch.
func (fl *Fleet) NowTicks() int64 { return int64(time.Since(fl.epoch) / fl.tick) }

// awaitFile polls for a non-empty file and returns its trimmed content.
func awaitFile(path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		blob, err := os.ReadFile(path)
		if err == nil && len(blob) > 0 {
			return strings.TrimSpace(string(blob)), nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s did not appear within %v", path, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// resolveNodeBin locates the ssbyz-node binary: the explicit flag, a
// sibling of this executable, or PATH.
func resolveNodeBin(flagValue string) (string, error) {
	if flagValue != "" {
		return flagValue, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "ssbyz-node")
		if _, err := os.Stat(sibling); err == nil {
			return sibling, nil
		}
	}
	if p, err := exec.LookPath("ssbyz-node"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("cannot find ssbyz-node (build it with `go build ./cmd/ssbyz-node` and pass -node-bin, or put it next to this command)")
}
