package engine

import (
	"errors"
	"fmt"

	"tripoll/internal/core"
	"tripoll/internal/graph"
)

// The remote execution path. In a multi-process world the engine's
// scheduler runs only in the driver process, but every traversal is a
// collective over the whole world: the worker processes must enter the
// same parallel regions, with the same fused analyses under the same plan
// union, at the same time. The seam is deliberately narrow — the driver
// broadcasts the post-cache work item (graph name, traversal options, the
// ordered leader specs of an admission group) through a Fanout just before
// executing it, and each worker compiles that item with ExecuteFused, the
// exact compile path runGroup uses. Broadcasting specs rather than raw
// admission batches keeps the replicas deterministic: cache hits, dedup
// and factory rejections are resolved once, on the driver, and the workers
// see only the surviving traversal work.

// Fanout mirrors fused traversals onto the worker processes of a
// multi-process world. Traverse is called by the scheduler goroutine after
// admission (cache hits and dedup already resolved), immediately before
// the driver enters the traversal's parallel regions; it must deliver the
// work item to every worker and return without waiting for the traversal
// (the traversal's own collectives synchronize the processes).
type Fanout interface {
	Traverse(graph string, opts core.Options, specs []Spec) error
}

// ExecuteFused compiles and runs one fused traversal from its wire form:
// per-spec instances and plans, the plan union, residual filters for
// stricter members — exactly mirroring the scheduler's runGroup so a
// worker process traverses in lockstep with the driver. It returns the
// survey result and each spec's result value in spec order.
//
// The driver resolves factory errors before fanning out, so a compile
// error here means the replicas have diverged (mismatched registries or
// builds); callers should treat it as fatal for the world, not the job.
func ExecuteFused[VM, EM any](reg *Registry[VM, EM], timeOf func(EM) uint64, g *graph.DODGr[VM, EM], opts core.Options, specs []Spec) (core.Result, []any, error) {
	if len(specs) == 0 {
		return core.Result{}, nil, errors.New("engine: fused work item with no specs")
	}
	insts := make([]Instance[VM, EM], len(specs))
	plans := make([]*core.Plan[EM], len(specs))
	keys := make([]string, len(specs))
	for i := range specs {
		s := specs[i]
		factory, ok := reg.Lookup(s.Analysis)
		if !ok {
			return core.Result{}, nil, fmt.Errorf("engine: unknown analysis %q", s.Analysis)
		}
		inst, err := factory(g, s)
		if err != nil {
			return core.Result{}, nil, fmt.Errorf("engine: analysis %q: %w", s.Analysis, err)
		}
		insts[i] = inst
		plan, err := compilePlan[EM](&s, timeOf)
		if err != nil {
			return core.Result{}, nil, err
		}
		plans[i] = plan
		key, ok := plan.Canonical()
		if !ok {
			return core.Result{}, nil, fmt.Errorf("engine: spec %q compiled a non-canonical plan", s.Analysis)
		}
		keys[i] = key
	}
	union, ok := core.UnionPlans(plans)
	if !ok {
		return core.Result{}, nil, errors.New("engine: non-unionable plans in one work item")
	}
	unionKey, _ := union.Canonical()
	attached := make([]core.Attached[VM, EM], len(specs))
	for i := range specs {
		att := insts[i].Attached
		if plans[i] != nil && keys[i] != unionKey {
			plan := plans[i]
			att = core.WithResidual(att, func(t *core.Triangle[VM, EM]) bool {
				return plan.MatchEdges(t.MetaPQ, t.MetaPR, t.MetaQR)
			})
		}
		attached[i] = att
	}
	res, err := core.Run(g, opts, union, attached...)
	if err != nil {
		return res, nil, err
	}
	vals := make([]any, len(insts))
	for i := range insts {
		vals[i] = insts[i].Result()
	}
	return res, vals, nil
}
