// Command tripoll-worker is one worker process of a multi-process tripoll
// world. It joins a coordinator (tripolld -workers, or any dist.Listen
// caller), hosts its assigned rank span, participates in collective graph
// builds, fused traversals and broadcast stream mutations (tripolld -wal
// -workers), and drains out gracefully on SIGTERM: a job in flight —
// traversal or mutation, acknowledgement and all — completes, the worker
// deregisters from the coordinator, and the process exits 0.
//
// Usage:
//
//	tripoll-worker -join 127.0.0.1:9123 [-listen 127.0.0.1:0]
//
// The join address may also come from the TRIPOLL_DIST_JOIN environment
// variable (the self-launch convention).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tripoll"
	"tripoll/internal/core"
	"tripoll/internal/dist"
	"tripoll/internal/graph"
	"tripoll/internal/ygm"
)

func main() {
	var (
		join    = flag.String("join", "", "coordinator control address (or TRIPOLL_DIST_JOIN)")
		listen  = flag.String("listen", "", "data-plane bind address for this process's ranks (default 127.0.0.1:0)")
		timeout = flag.Duration("timeout", 60*time.Second, "rendezvous timeout")
	)
	flag.Parse()
	log.SetPrefix("tripoll-worker: ")

	addr := *join
	if addr == "" {
		addr = dist.JoinAddrFromEnv()
	}
	if addr == "" {
		fmt.Fprintln(os.Stderr, "tripoll-worker: need -join <addr> or TRIPOLL_DIST_JOIN")
		os.Exit(2)
	}

	wk, err := dist.Join(addr, *listen, *timeout)
	if err != nil {
		log.Fatalf("join %s: %v", addr, err)
	}
	first, count := wk.World().LocalSpan()
	log.Printf("joined %s as process %d: ranks [%d, %d) of %d",
		addr, wk.Proc(), first, first+count, wk.World().Size())

	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	go func() {
		s := <-sig
		log.Printf("%v: draining (in-flight traversal completes, then deregister)", s)
		close(stop)
	}()

	if err := dist.Serve(wk, temporalHooks(), stop); err != nil {
		log.Fatalf("serve: %v", err)
	}
	log.Printf("departed cleanly")
}

// temporalHooks is the worker side of tripolld's configuration: unit
// vertex metadata, uint64 timestamp edge metadata, the stock temporal
// analysis registry, and the §5.2 min-timestamp multigraph reduction.
// Driver and worker must agree on this mapping — both ship in this repo.
func temporalHooks() dist.Hooks[tripoll.Unit, uint64] {
	return dist.Hooks[tripoll.Unit, uint64]{
		Registry:   tripoll.TemporalQueryRegistry(),
		Timestamps: func(ts uint64) uint64 { return ts },
		Build: func(w *ygm.World, name string, spec dist.BuildSpec) (*graph.DODGr[tripoll.Unit, uint64], error) {
			if spec.Policy != "" && spec.Policy != "temporal" {
				return nil, fmt.Errorf("unknown build policy %q", spec.Policy)
			}
			if graph.Ordering(spec.Ordering) != graph.OrderDegree {
				return nil, fmt.Errorf("build ordering %d not supported by this worker", spec.Ordering)
			}
			log.Printf("building graph %q (collective)", name)
			return tripoll.BuildTemporal(w, nil), nil
		},
		// The worker's side of tripolld's OpenDurableStream: same stream
		// options and plan, no WAL (durability is driver-side; DESIGN.md
		// §14). Broadcast mutations keep every process's stream identical.
		// The "temporal+truss" policy additionally attaches a triangle-span
		// index sink (tripolld -truss-index); the sink's commit collective
		// runs on every process of the world, so driver and workers must
		// agree on attachment or the world deadlocks — the policy name is
		// that agreement.
		OpenStream: func(g *graph.DODGr[tripoll.Unit, uint64], policy string) (*core.Stream[tripoll.Unit, uint64], error) {
			switch policy {
			case "", "temporal":
				log.Printf("opening stream (collective)")
				return tripoll.OpenStream(g, tripoll.StreamOptions[uint64]{MergeEdgeMeta: minTimestamp}, tripoll.NewTemporalPlan())
			case "temporal+truss":
				log.Printf("opening stream with truss index (collective)")
				ix := tripoll.NewTrussIndex[tripoll.Unit](minTimestamp)
				return tripoll.OpenStreamSinks(g, tripoll.StreamOptions[uint64]{MergeEdgeMeta: minTimestamp}, tripoll.NewTemporalPlan(),
					[]tripoll.StreamSink[tripoll.Unit, uint64]{ix})
			default:
				return nil, fmt.Errorf("unknown stream policy %q", policy)
			}
		},
	}
}

// minTimestamp mirrors tripolld's multigraph reduction: keep the earliest
// timestamp of a repeated edge (the §5.2 Reddit reduction).
func minTimestamp(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
