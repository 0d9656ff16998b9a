//go:build linux

package ops

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ssbyz/internal/protocol"
)

// fleetHelperEnv selects a helper role for the test binary itself:
// "orchestrator" runs a one-daemon Fleet of this binary, "daemon" stands
// in for ssbyz-node.
const fleetHelperEnv = "SSBYZ_FLEET_HELPER"

func TestMain(m *testing.M) {
	switch os.Getenv(fleetHelperEnv) {
	case "orchestrator":
		fleetOrchestrator()
	case "daemon":
		fakeDaemon()
	}
	os.Exit(m.Run())
}

// fleetOrchestrator spawns one fake daemon, writes its pid to the file
// named by argv[1], and sleeps until killed, never closing the fleet.
func fleetOrchestrator() {
	fl, err := NewFleet(os.Args[0], protocol.DefaultParams(4), "udp", time.Millisecond)
	if err == nil {
		os.Setenv(fleetHelperEnv, "daemon")
		err = fl.Spawn(0)
	}
	if err == nil {
		err = os.WriteFile(os.Args[1], []byte(fmt.Sprint(fl.procs[0].Process.Pid)), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "orchestrator:", err)
		os.Exit(2)
	}
	time.Sleep(time.Minute)
	os.Exit(0)
}

// fakeDaemon publishes an ops address in its -ops-addr-file, as
// ssbyz-node does, and sleeps; SIGTERM's default action ends it.
func fakeDaemon() {
	for i, a := range os.Args {
		if a == "-ops-addr-file" && i+1 < len(os.Args) {
			os.WriteFile(os.Args[i+1], []byte("127.0.0.1:1\n"), 0o644)
		}
	}
	time.Sleep(time.Minute)
	os.Exit(0)
}

// TestFleetDiesWithOrchestrator: SIGKILL an orchestrator that never
// calls Close, and its daemon must be gone (or a zombie awaiting its
// reaper) within 2 s.
func TestFleetDiesWithOrchestrator(t *testing.T) {
	pidFile := filepath.Join(t.TempDir(), "daemon.pid")
	orch := exec.Command(os.Args[0], pidFile)
	orch.Env = append(os.Environ(), fleetHelperEnv+"=orchestrator")
	orch.Stderr = os.Stderr
	if err := orch.Start(); err != nil {
		t.Fatal(err)
	}
	pidText, err := awaitFile(pidFile, 20*time.Second)
	if err != nil {
		orch.Process.Kill()
		orch.Wait()
		t.Fatal(err)
	}
	var pid int
	if _, err := fmt.Sscan(pidText, &pid); err != nil || pid <= 0 {
		t.Fatalf("daemon pid %q: %v", pidText, err)
	}
	t.Cleanup(func() { syscall.Kill(pid, syscall.SIGKILL) })
	if !processLive(pid) {
		t.Fatalf("daemon %d is not running before the orchestrator dies", pid)
	}
	orch.Process.Kill()
	orch.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for processLive(pid) {
		if time.Now().After(deadline) {
			t.Fatalf("daemon %d outlived its SIGKILLed orchestrator by 2 s", pid)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// processLive reports whether pid exists and is not a zombie, from
// /proc/<pid>/stat ("pid (comm) state ...").
func processLive(pid int) bool {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	i := strings.LastIndexByte(string(stat), ')')
	return i >= 0 && i+2 < len(stat) && stat[i+2] != 'Z'
}
