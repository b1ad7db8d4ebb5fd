package cluster

// eventQueue is one shard's pending cluster events and drain flushes —
// the events that depend on the run itself; every reload and unload is
// derived into the stream instead (streamBuilder). It is a binary heap
// over eventLess: a flush is never earlier than the last popped time,
// but it may precede the pending minimum. On the sharded path it stays
// empty. The zero value is an empty queue.
type eventQueue struct {
	h []cevent
}

// push enqueues ev, which must be an evCluster or evFlush event.
func (q *eventQueue) push(ev cevent) {
	if ev.kind != evCluster && ev.kind != evFlush {
		panic("cluster: only cluster events and drain flushes are queued")
	}
	heapPush(&q.h, ev)
}

// peek returns the earliest pending event without removing it.
func (q *eventQueue) peek() (cevent, bool) {
	if len(q.h) == 0 {
		return cevent{}, false
	}
	return q.h[0], true
}

// pop removes the event the preceding peek returned.
func (q *eventQueue) pop() {
	heapPop(&q.h)
}

// reset empties the queue, keeping its capacity for the worker's next
// node.
func (q *eventQueue) reset() {
	q.h = q.h[:0]
}

func heapPush(h *[]cevent, ev cevent) {
	*h = append(*h, ev)
	hs := *h
	i := len(hs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(hs[i], hs[parent]) {
			break
		}
		hs[i], hs[parent] = hs[parent], hs[i]
		i = parent
	}
}

func heapPop(h *[]cevent) {
	hs := *h
	n := len(hs) - 1
	hs[0] = hs[n]
	*h = hs[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventLess(hs[l], hs[small]) {
			small = l
		}
		if r < n && eventLess(hs[r], hs[small]) {
			small = r
		}
		if small == i {
			return
		}
		hs[i], hs[small] = hs[small], hs[i]
		i = small
	}
}
