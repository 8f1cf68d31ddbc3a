package main

// Process hygiene: every OS process the benchmark starts runs in its own
// process group, is registered here, and is killed (group-wide, so
// tripolld's auto-launched workers go with it) on every exit path — normal
// return, error, signal, or a run deadline. Pdeathsig covers the one path
// no handler sees: the benchmark itself being SIGKILLed. (It fires when the
// forking *thread* exits, and Go ends a thread when a goroutine exits while
// locked to it: nothing in this program may call runtime.LockOSThread.) The
// benchmark makes
// itself the subreaper of its descendants, so that the workers a killed
// tripolld orphans are collected here, at once, and not by init whenever it
// gets to them.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one process group the benchmark started.
type child struct {
	cmd    *exec.Cmd
	done   chan struct{} // closed once the group leader has been collected
	killed sync.Once
}

// children tracks the live process groups of this benchmark process.
var children struct {
	sync.Mutex
	live map[*child]bool
}

var adoptOrphans sync.Once

// spawn starts cmd as the leader of a new process group and registers it.
func spawn(cmd *exec.Cmd) (*child, error) {
	adoptOrphans.Do(func() {
		const prSetChildSubreaper = 36 // PR_SET_CHILD_SUBREAPER; kill falls back to polling without it
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0)
	})
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // how it ended is the caller's to judge; "killed" is the usual answer
		close(c.done)
	}()
	children.Lock()
	if children.live == nil {
		children.live = make(map[*child]bool)
	}
	children.live[c] = true
	children.Unlock()
	return c, nil
}

// kill SIGKILLs the whole process group and returns once it is empty: the
// leader collected by its Wait, the members it forked (tripolld's workers)
// reparented to this process and collected here. Safe to call twice.
func (c *child) kill() {
	c.killed.Do(func() {
		pgid := c.cmd.Process.Pid
		_ = syscall.Kill(-pgid, syscall.SIGKILL) // ESRCH once the group is gone
		<-c.done
		for {
			// ECHILD: no member of the group is left among our children.
			if _, err := syscall.Wait4(-pgid, nil, 0, nil); err != nil && err != syscall.EINTR {
				break
			}
		}
		// Members that found another parent are init's to reap.
		for i := 0; i < 400 && syscall.Kill(-pgid, 0) == nil; i++ {
			time.Sleep(5 * time.Millisecond)
		}
		children.Lock()
		delete(children.live, c)
		children.Unlock()
	})
}

// killAll kills every registered process group (exit paths).
func killAll() {
	children.Lock()
	var all []*child
	for c := range children.live {
		all = append(all, c)
	}
	children.Unlock()
	for _, c := range all {
		c.kill()
	}
}

// serverOpts selects the tripolld deployment a workload runs against.
type serverOpts struct {
	input      string // edge-list file
	walDir     string // -wal DIR (always set: every workload ends in writes)
	workers    int    // -workers N with -worker-cmd
	trussIndex bool
}

// server is one running tripolld (plus its workers).
type server struct {
	proc   *child
	base   string // http://127.0.0.1:port
	log    *bytes.Buffer
	setupS float64 // exec → first 200 on /healthz
}

// freePort picks an unused loopback port for tripolld's HTTP address from
// 20000–29999, below the range the kernel serves port 0 from (32768–60999
// by default). tripolld binds the address only after the world is up, and
// until then a port from the kernel's own range could be handed to one of
// the world's rank listeners — which the readiness probe's "GET " would
// then wreck.
func freePort() (int, error) {
	const lo, n = 20000, 10000
	start := rand.Intn(n)
	for i := 0; i < n; i++ {
		port := lo + (start+i)%n
		if ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(port)); err == nil {
			ln.Close()
			return port, nil
		}
	}
	return 0, errors.New("no free loopback port in 20000–29999")
}

// startServer execs tripolld and waits for its first 200 on /healthz.
func startServer(ctx context.Context, binDir string, o serverOpts) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-input", o.input, "-addr", "127.0.0.1:" + strconv.Itoa(port),
		"-ranks", "4", "-rate", "0",
		"-wal", o.walDir, "-wal-sync", "always",
	}
	if o.workers > 0 {
		args = append(args, "-workers", strconv.Itoa(o.workers), "-worker-cmd", filepath.Join(binDir, "tripoll-worker"))
	}
	if o.trussIndex {
		args = append(args, "-truss-index")
	}
	s := &server{base: "http://127.0.0.1:" + strconv.Itoa(port), log: new(bytes.Buffer)}
	cmd := exec.Command(filepath.Join(binDir, "tripolld"), args...)
	cmd.Stdout, cmd.Stderr = s.log, s.log
	t0 := time.Now()
	if s.proc, err = spawn(cmd); err != nil {
		return nil, fmt.Errorf("start tripolld: %w", err)
	}

	client := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setupS = time.Since(t0).Seconds()
				return s, nil
			}
		}
		select {
		case <-s.proc.done:
			s.stop()
			return nil, fmt.Errorf("tripolld exited before becoming ready:\n%s", s.log)
		case <-ctx.Done():
			s.stop()
			return nil, fmt.Errorf("tripolld not ready: %w\n%s", ctx.Err(), s.log)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop kills the server and its workers.
func (s *server) stop() { s.proc.kill() }

// alive reports whether tripolld is still running.
func (s *server) alive() bool {
	select {
	case <-s.proc.done:
		return false
	default:
		return true
	}
}

// rssPeakMB sums VmHWM over every process of the server's process group
// (tripolld and its workers).
func (s *server) rssPeakMB() (float64, error) {
	pgid := s.proc.cmd.Process.Pid
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return 0, err
	}
	var kb float64
	found := false
	for _, ent := range ents {
		pid, err := strconv.Atoi(ent.Name())
		if err != nil {
			continue
		}
		if g, err := syscall.Getpgid(pid); err != nil || g != pgid {
			continue
		}
		status, err := os.ReadFile(filepath.Join("/proc", ent.Name(), "status"))
		if err != nil {
			continue // exited between the listing and the read
		}
		for _, line := range strings.Split(string(status), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				n, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err != nil {
					return 0, fmt.Errorf("parse %q: %w", line, err)
				}
				kb += n
				found = true
			}
		}
	}
	if !found {
		return 0, errors.New("no live process in the server's group")
	}
	return kb / 1024, nil
}
