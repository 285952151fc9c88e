package sim

import "container/heap"

// The binary-heap reference kernel: the O(log n) event queue the
// timing wheel replaced, kept as the wheel's differential oracle
// (TestWheelMatchesHeap) and as BenchmarkKernel's heap arm. It plugs
// into Simulation through the same queueImpl contract.

// locHeap is the Event.loc of a heap-queued event (slot in Event.idx);
// no wheel location uses it, so the wheel rejects heap events as
// foreign.
const locHeap = -2

// newHeapSim returns an empty simulation backed by the heap kernel.
func newHeapSim() *Simulation {
	return &Simulation{queue: &heapQueue{}}
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*q = old[:n-1]
	return e
}

// heapQueue adapts the container/heap eventQueue to queueImpl.
type heapQueue struct{ q eventQueue }

func (h *heapQueue) push(e *Event) {
	e.loc = locHeap
	heap.Push(&h.q, e)
}

func (h *heapQueue) fix(e *Event) { heap.Fix(&h.q, e.idx) }

func (h *heapQueue) queued(e *Event) bool {
	return e.idx >= 0 && e.idx < len(h.q) && h.q[e.idx] == e
}

func (h *heapQueue) peek() *Event {
	if len(h.q) == 0 {
		return nil
	}
	return h.q[0]
}

func (h *heapQueue) pop() *Event {
	if len(h.q) == 0 {
		return nil
	}
	e := heap.Pop(&h.q).(*Event)
	e.loc = locNone
	return e
}

func (h *heapQueue) len() int { return len(h.q) }
