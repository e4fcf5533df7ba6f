package workflow

import (
	"fmt"

	"aarc/internal/dag"
	"aarc/internal/perfmodel"
	"aarc/internal/simfaas"
)

// This file implements incremental plan maintenance: Runner.Patch applies a
// Delta to the spec AND splices it into the already-compiled dense plan, so
// a single edit against a 10k-node workflow costs microseconds instead of a
// full TopoSort + recompile. Row positions are kept topologically valid by a
// Pearce–Kelly order (dag.Order); the edit sequence ends with an O(V+E)
// integer sweep that downgrades any inconsistency — including a cycle the
// local repair could not prove against the pre-mutated graph — into a full
// recompile instead of a wrong simulation.

// ensureOrder lazily attaches the position-maintenance structure. It must
// run before the spec's graph is mutated: a fresh plan's ids slice is
// exactly a topological order of the current graph, which seeds the Order
// for free (no TopoSort).
func (p *plan) ensureOrder(spec *Spec) {
	if p.ord == nil {
		p.ord = dag.NewOrderSeeded(spec.G, p.ids)
	}
}

// rowRemoveEdge retires one dense edge entry.
func (p *plan) rowRemoveEdge(u, v string) error {
	pu, ok := p.ord.Pos(u)
	if !ok {
		return fmt.Errorf("workflow: plan has no node %q", u)
	}
	pv, ok := p.ord.Pos(v)
	if !ok {
		return fmt.Errorf("workflow: plan has no node %q", v)
	}
	ss := p.succs[pu]
	for i, e := range ss {
		if e == int32(pv) {
			p.succs[pu] = append(ss[:i], ss[i+1:]...)
			p.indeg0[pv]--
			p.ord.EdgeRemoved(u, v)
			return nil
		}
	}
	return fmt.Errorf("workflow: plan has no edge %q -> %q", u, v)
}

// rowRemoveNode tombstones a node's row. All incident edges must already be
// retired (Delta normalization guarantees this).
func (p *plan) rowRemoveNode(id string) error {
	pos, ok := p.ord.Pos(id)
	if !ok {
		return fmt.Errorf("workflow: plan has no node %q", id)
	}
	if len(p.succs[pos]) != 0 || p.indeg0[pos] != 0 {
		return fmt.Errorf("workflow: removing node %q with live edges", id)
	}
	p.groupLive[p.groupIdx[pos]]--
	p.ids[pos] = ""
	p.groups[pos] = ""
	p.groupIdx[pos] = -1
	p.profiles[pos] = perfmodel.Profile{}
	p.slots[pos] = -1
	p.succs[pos] = nil
	p.indeg0[pos] = -1
	p.ord.NodeRemoved(id)
	return nil
}

// rowAddNode fills a row for a newly added node, reusing a tombstoned row
// when one is free and growing the arrays otherwise. New groups are
// appended to the dense group tables; a group whose last member was removed
// earlier is revived in place. Only the new row's container slot is bound.
func (p *plan) rowAddNode(spec *Spec, platform *simfaas.Platform, id string) {
	pos := p.ord.NodeAdded(id)
	if pos == len(p.ids) {
		p.ids = append(p.ids, "")
		p.groups = append(p.groups, "")
		p.groupIdx = append(p.groupIdx, -1)
		p.profiles = append(p.profiles, perfmodel.Profile{})
		p.slots = append(p.slots, -1)
		p.succs = append(p.succs, nil)
		p.indeg0 = append(p.indeg0, -1)
	}
	g := spec.GroupOf(id)
	gi, ok := p.gidx[g]
	if !ok {
		gi = int32(len(p.groupNames))
		p.gidx[g] = gi
		p.groupNames = append(p.groupNames, g)
		p.groupNode = append(p.groupNode, id)
		p.groupLive = append(p.groupLive, 0)
	}
	if p.groupLive[gi] == 0 {
		p.groupNode[gi] = id
	}
	p.groupLive[gi]++
	p.ids[pos] = id
	p.groups[pos] = g
	p.groupIdx[pos] = gi
	p.profiles[pos] = spec.Profiles[id]
	p.slots[pos] = platform.Slot(id)
	p.succs[pos] = nil
	p.indeg0[pos] = 0
}

// rowAddEdge inserts a dense edge entry, repairing row positions first when
// the new edge contradicts the current order. g must already contain the
// edge set the delta produces (Spec.Apply runs before the plan patch), which
// is exactly what the Pearce–Kelly DFS wants to see.
func (p *plan) rowAddEdge(g *dag.Graph, u, v string) error {
	moves, err := p.ord.EdgeAdded(u, v)
	if err != nil {
		return err
	}
	if len(moves) > 0 {
		p.applyMoves(g, moves)
	}
	pu, ok := p.ord.Pos(u)
	if !ok {
		return fmt.Errorf("workflow: plan has no node %q", u)
	}
	pv, ok := p.ord.Pos(v)
	if !ok {
		return fmt.Errorf("workflow: plan has no node %q", v)
	}
	p.succs[pu] = append(p.succs[pu], int32(pv))
	p.indeg0[pv]++
	return nil
}

// applyMoves relocates plan rows after a Pearce–Kelly repair. The repair
// permutes positions only within the pooled slots, and every vacated slot is
// reused, so a snapshot-then-write pass is complete. Dense successor entries
// that referenced a moved slot live only in the rows of the moved nodes and
// their predecessors; each such row is rewritten exactly once through the
// old→new position map (rewriting twice could chain two moves).
func (p *plan) applyMoves(g *dag.Graph, moves []dag.Move) {
	type row struct {
		id    string
		group string
		gi    int32
		prof  perfmodel.Profile
		slot  int
		succ  []int32
		indeg int32
	}
	moveMap := make(map[int32]int32, len(moves))
	snaps := make([]row, len(moves))
	for i, m := range moves {
		moveMap[int32(m.From)] = int32(m.To)
		snaps[i] = row{
			id: p.ids[m.From], group: p.groups[m.From], gi: p.groupIdx[m.From],
			prof: p.profiles[m.From], slot: p.slots[m.From], succ: p.succs[m.From], indeg: p.indeg0[m.From],
		}
	}
	for i, m := range moves {
		s := snaps[i]
		p.ids[m.To] = s.id
		p.groups[m.To] = s.group
		p.groupIdx[m.To] = s.gi
		p.profiles[m.To] = s.prof
		p.slots[m.To] = s.slot
		p.succs[m.To] = s.succ
		p.indeg0[m.To] = s.indeg
	}
	rows := make(map[int32]bool, 2*len(moves))
	for _, m := range moves {
		rows[int32(m.To)] = true
		for _, pred := range g.Pred(p.ids[m.To]) {
			// Pred reads the final graph, a superset of the plan's current
			// edges: rows of still-pending edges simply contain no entry to
			// rewrite. A pred absent from the order was added by this same
			// delta after this point and has no entries yet either.
			if pp, ok := p.ord.Pos(pred); ok {
				rows[int32(pp)] = true
			}
		}
	}
	for r := range rows {
		ss := p.succs[r]
		for j, e := range ss {
			if nv, ok := moveMap[e]; ok {
				ss[j] = nv
			}
		}
	}
}

// patch splices a normalized delta into the plan, binding the added nodes'
// slots on platform. The spec must already reflect the delta (Spec.Apply
// ran). On error the plan may be inconsistent and the caller must
// recompile.
func (p *plan) patch(spec *Spec, platform *simfaas.Platform, d Delta) error {
	for _, e := range d.RemoveEdges {
		if err := p.rowRemoveEdge(e.From, e.To); err != nil {
			return err
		}
	}
	for _, id := range d.RemoveNodes {
		if err := p.rowRemoveNode(id); err != nil {
			return err
		}
	}
	for _, n := range d.AddNodes {
		p.rowAddNode(spec, platform, n.ID)
	}
	for _, e := range d.AddEdges {
		if err := p.rowAddEdge(spec.G, e.From, e.To); err != nil {
			return err
		}
	}
	for id := range d.Profiles {
		pos, ok := p.ord.Pos(id)
		if !ok {
			return fmt.Errorf("workflow: profile update for unknown node %q", id)
		}
		p.profiles[pos] = spec.Profiles[id]
	}
	return p.sweep()
}

// sweep is the integer validity check guarding the incremental path: every
// dense successor entry must point forward to a live row and the stored
// indegrees must match the edge set. It walks two int slices — microseconds
// at 10k nodes, far below a recompile — and catches both bookkeeping bugs
// and cycles: a cyclic edge set admits no valid positions, so some entry
// must point backwards.
func (p *plan) sweep() error {
	n := len(p.ids)
	if cap(p.sweepBuf) < n {
		p.sweepBuf = make([]int32, n)
	}
	indeg := p.sweepBuf[:n]
	clear(indeg)
	live := 0
	for i := 0; i < n; i++ {
		if p.ids[i] == "" {
			if p.indeg0[i] != -1 || len(p.succs[i]) != 0 {
				return fmt.Errorf("workflow: plan hole %d has edges", i)
			}
			continue
		}
		live++
		for _, e := range p.succs[i] {
			if int(e) <= i || int(e) >= n || p.ids[e] == "" {
				return fmt.Errorf("workflow: plan edge %d -> %d violates topological order", i, e)
			}
			indeg[e]++
		}
	}
	for i := 0; i < n; i++ {
		if p.ids[i] != "" && indeg[i] != p.indeg0[i] {
			return fmt.Errorf("workflow: plan indegree mismatch at row %d: %d stored, %d actual",
				i, p.indeg0[i], indeg[i])
		}
	}
	if p.ord != nil && live != p.ord.Len() {
		return fmt.Errorf("workflow: plan holds %d live rows, order tracks %d", live, p.ord.Len())
	}
	return nil
}

// Patch applies a Delta to the runner's spec and splices it into the
// compiled plan in place, avoiding the full TopoSort + recompile that
// NewRunner pays. When the incremental splice cannot be completed — most
// notably when the delta closes a dependency cycle — Patch falls back to a
// full recompile of the (already mutated) spec; if that also fails the
// runner is poisoned and every later Evaluate returns the failure.
//
// Patch mutates the spec the runner was built with. Callers that share one
// Spec across runners (the service's runner pools do) must not Patch them;
// patching requires exclusive ownership of both runner and spec.
func (r *Runner) Patch(d Delta) error {
	if r.broken != nil {
		return r.broken
	}
	nd, err := d.normalized(r.spec)
	if err != nil {
		return err
	}
	r.plan.ensureOrder(r.spec)
	if err := r.spec.Apply(nd); err != nil {
		// The spec may be partially edited; recompile to keep the runner
		// usable when possible, but the delta itself still failed.
		r.recompile(err)
		return err
	}
	if err := r.plan.patch(r.spec, r.platform, nd); err != nil {
		return r.recompile(err)
	}
	return nil
}

// recompile rebuilds the plan from the runner's current spec after a failed
// incremental patch. It returns nil when the rebuild succeeds (the delta is
// fully applied, just not incrementally) and poisons the runner otherwise.
func (r *Runner) recompile(cause error) error {
	if err := r.spec.Validate(); err != nil {
		r.broken = fmt.Errorf("workflow %s: incremental patch failed (%v) and recompile failed: %w",
			r.spec.Name, cause, err)
		return r.broken
	}
	p, err := compilePlan(r.spec, r.platform)
	if err != nil {
		r.broken = fmt.Errorf("workflow %s: incremental patch failed (%v) and recompile failed: %w",
			r.spec.Name, cause, err)
		return r.broken
	}
	r.plan = p
	return nil
}
