package cluster

import "slices"

// eventQueue is one shard's pending cluster events and drain flushes —
// the events that depend on the run itself; every reload and unload is
// derived into the stream instead (streamBuilder). It holds only the
// configured incidents plus one flush per container a drain finds
// executing, so it is a slice kept sorted latest-first under eventLess:
// the earliest event is the tail. A flush is never earlier than the
// last popped time, but it may precede the pending minimum. In a
// sharded run it stays empty. A completed part leaves it drained (its
// last epoch runs to +Inf) and a worker stops at its first failed part,
// so every part starts with it empty. The zero value is an empty queue.
type eventQueue struct {
	evs []cevent
}

// push enqueues ev, which must be an evCluster or evFlush event.
func (q *eventQueue) push(ev cevent) {
	if ev.kind != evCluster && ev.kind != evFlush {
		panic("cluster: only cluster events and drain flushes are queued")
	}
	i, _ := slices.BinarySearchFunc(q.evs, ev, func(a, b cevent) int {
		switch {
		case eventLess(b, a):
			return -1
		case eventLess(a, b):
			return 1
		}
		return 0
	})
	q.evs = slices.Insert(q.evs, i, ev)
}

// peek returns the earliest pending event without removing it.
func (q *eventQueue) peek() (cevent, bool) {
	if len(q.evs) == 0 {
		return cevent{}, false
	}
	return q.evs[len(q.evs)-1], true
}

// pop removes the event the preceding peek returned.
func (q *eventQueue) pop() {
	q.evs = q.evs[:len(q.evs)-1]
}
