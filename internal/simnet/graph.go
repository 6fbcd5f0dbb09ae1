package simnet

import (
	"fmt"
	"sort"
)

// Task is one unit of simulated work: a compute op on a device or a
// transfer on a link. Tasks bound to the same Resource execute serially,
// in the order they were added to the graph (the schedule order).
type Task struct {
	ID       string
	Label    string // free-form grouping key for breakdown accounting
	Duration float64
	Resource string // "" means unconstrained (infinitely parallel)

	deps   []*Task
	start  float64
	finish float64
}

// Start returns the resolved start time (valid after Graph.Solve).
func (t *Task) Start() float64 { return t.start }

// Finish returns the resolved finish time (valid after Graph.Solve).
func (t *Task) Finish() float64 { return t.finish }

// Graph is a DAG of tasks plus resource serialization. Resource order is
// insertion order: adding tasks in schedule order encodes the per-device
// execution policy, exactly how 1F1B fixes each device's op sequence.
type Graph struct {
	tasks  []*Task
	byID   map[string]*Task
	resSeq map[string][]*Task
}

// NewGraph returns an empty task graph.
func NewGraph() *Graph {
	return &Graph{byID: make(map[string]*Task), resSeq: make(map[string][]*Task)}
}

// Add registers a task. IDs must be unique; duration must be ≥ 0.
func (g *Graph) Add(id, label string, duration float64, resource string) *Task {
	if duration < 0 {
		panic(fmt.Sprintf("simnet: task %s negative duration %v", id, duration))
	}
	if _, dup := g.byID[id]; dup {
		panic(fmt.Sprintf("simnet: duplicate task id %s", id))
	}
	t := &Task{ID: id, Label: label, Duration: duration, Resource: resource}
	g.tasks = append(g.tasks, t)
	g.byID[id] = t
	if resource != "" {
		g.resSeq[resource] = append(g.resSeq[resource], t)
	}
	return t
}

// Dep declares that after must not start before before finishes.
func (g *Graph) Dep(before, after *Task) {
	if before == nil || after == nil {
		panic("simnet: nil task in Dep")
	}
	after.deps = append(after.deps, before)
}

// Get returns a task by id, or nil.
func (g *Graph) Get(id string) *Task { return g.byID[id] }

// Tasks returns all tasks in insertion order.
func (g *Graph) Tasks() []*Task { return g.tasks }

// Solve resolves start/finish times: each task starts at the max of its
// dependencies' finish times and its resource predecessor's finish time.
// Returns the makespan. Errors on dependency cycles.
func (g *Graph) Solve() (float64, error) {
	// Materialize resource-precedence edges, then longest-path over the DAG.
	preds := make(map[*Task][]*Task, len(g.tasks))
	indeg := make(map[*Task]int, len(g.tasks))
	succs := make(map[*Task][]*Task, len(g.tasks))
	for _, t := range g.tasks {
		preds[t] = append(preds[t], t.deps...)
	}
	for _, seq := range g.resSeq {
		for i := 1; i < len(seq); i++ {
			preds[seq[i]] = append(preds[seq[i]], seq[i-1])
		}
	}
	for t, ps := range preds {
		indeg[t] = len(ps)
		for _, p := range ps {
			succs[p] = append(succs[p], t)
		}
	}
	var ready []*Task
	for _, t := range g.tasks {
		if indeg[t] == 0 {
			ready = append(ready, t)
		}
	}
	done := 0
	var makespan float64
	for len(ready) > 0 {
		t := ready[0]
		ready = ready[1:]
		var start float64
		for _, p := range preds[t] {
			if p.finish > start {
				start = p.finish
			}
		}
		t.start = start
		t.finish = start + t.Duration
		if t.finish > makespan {
			makespan = t.finish
		}
		done++
		for _, s := range succs[t] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if done != len(g.tasks) {
		return 0, fmt.Errorf("simnet: dependency cycle (%d of %d tasks resolved)", done, len(g.tasks))
	}
	return makespan, nil
}

// TotalByLabel sums task durations per label — the raw material of the
// CPI-stack-style breakdown of Fig. 3/10.
func (g *Graph) TotalByLabel() map[string]float64 {
	out := make(map[string]float64)
	for _, t := range g.tasks {
		out[t.Label] += t.Duration
	}
	return out
}

// ResourceBusy returns per-resource busy time (Σ durations).
func (g *Graph) ResourceBusy() map[string]float64 {
	out := make(map[string]float64)
	for _, t := range g.tasks {
		if t.Resource != "" {
			out[t.Resource] += t.Duration
		}
	}
	return out
}

// ResourceTimeline returns the tasks of one resource sorted by start time,
// for rendering ASCII timing diagrams (Fig. 4).
func (g *Graph) ResourceTimeline(resource string) []*Task {
	seq := append([]*Task{}, g.resSeq[resource]...)
	sort.SliceStable(seq, func(i, j int) bool { return seq[i].start < seq[j].start })
	return seq
}
