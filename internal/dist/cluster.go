package dist

import (
	"fmt"
	"sync"
	"time"

	"tripoll/internal/core"
	"tripoll/internal/engine"
	"tripoll/internal/ygm"
)

// Cluster is the coordinator's handle on an assembled multi-process world:
// the local World (ranks [0, RanksPerProc)), the worker control
// connections, and the job-broadcast methods. It implements engine.Fanout,
// so handing it to EngineOptions.Fanout makes every admitted traversal a
// whole-world collective.
//
// Methods are not safe for concurrent use with each other; the engine's
// single scheduler goroutine already serializes Traverse, and Build/Close
// belong to setup and teardown.
type Cluster struct {
	cfg     Config
	w       *ygm.World
	workers []*ctrlConn
	link    *coordLink

	mu       sync.Mutex
	closed   bool
	mutStats MutationStats
}

// World returns the coordinator's view of the process-spanning world.
func (c *Cluster) World() *ygm.World { return c.w }

// Procs returns the total process count, coordinator included.
func (c *Cluster) Procs() int { return c.cfg.Procs }

// bcast sends one job frame to every worker; the first failure poisons the
// cluster for subsequent jobs (a worker that missed a job can never rejoin
// the lockstep).
func (c *Cluster) bcast(m *ctrlMsg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("dist: cluster is closed")
	}
	for i, cc := range c.workers {
		if err := cc.send(m); err != nil {
			c.closed = true
			return fmt.Errorf("dist: broadcasting %v job to worker %d: %w", m.Kind, i+1, err)
		}
	}
	return nil
}

// Build broadcasts a graph-build job, after which the caller must run its
// own side of the collective build (feed every edge from the local ranks
// and call the builder) — the workers enter theirs on receipt, feeding no
// edges, and the ygm transport ships each edge to its owner rank.
func (c *Cluster) Build(name string, spec BuildSpec) error {
	if spec.Replicas > 1 {
		return fmt.Errorf("dist: build %q: %d replicas requested, a graph has one copy", name, spec.Replicas)
	}
	return c.bcast(&ctrlMsg{Kind: kBuild, Graph: name, Build: spec})
}

// Traverse broadcasts one fused traversal (engine.Fanout). The caller runs
// its side immediately after; the traversal's own collectives synchronize
// the processes, so no acknowledgement round exists.
func (c *Cluster) Traverse(graph string, opts core.Options, specs []engine.Spec) error {
	return c.bcast(&ctrlMsg{
		Kind: kRun, Graph: graph,
		Run: RunSpec{Mode: int(opts.Mode), PullFactor: opts.PullFactor, Specs: specs},
	})
}

// Close dismisses the workers (stop, then wait briefly for each leave so
// their exit is orderly), closes the control connections and the world.
func (c *Cluster) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	if !already {
		for _, cc := range c.workers {
			cc.send(&ctrlMsg{Kind: kStop})
		}
		grace := time.Now().Add(5 * time.Second)
		for _, cc := range c.workers {
			cc.setDeadline(grace)
			for {
				m, err := cc.recv()
				if err != nil || m.Kind == kLeave {
					break
				}
			}
		}
	}
	for _, cc := range c.workers {
		cc.close()
	}
	c.w.Close()
	return nil
}
