package cluster

// eventQueue is one shard's pending container events: a binary heap
// over eventLess. Event times are monotone per shard: a push is never
// earlier than the last popped time (every event is scheduled at or
// after the instant being processed), but it may precede the pending
// minimum, so the queue is a heap rather than a FIFO. The zero value
// is an empty queue.
type eventQueue struct {
	n int // pending events
	h []cevent
}

// push enqueues ev.
func (q *eventQueue) push(ev cevent) {
	q.n++
	heapPush(&q.h, ev)
}

// peek returns the earliest pending event without removing it.
func (q *eventQueue) peek() (cevent, bool) {
	if q.n == 0 {
		return cevent{}, false
	}
	return q.h[0], true
}

// pop removes the event the preceding peek returned.
func (q *eventQueue) pop() {
	q.n--
	heapPop(&q.h)
}

// reset empties the queue, keeping its capacity for the worker's next
// node.
func (q *eventQueue) reset() {
	q.n = 0
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
