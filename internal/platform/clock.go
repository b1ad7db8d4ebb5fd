// Package platform implements an in-process FaaS control plane
// mirroring the OpenWhisk architecture the paper modifies (§4.3,
// Figure 13): a REST front end, a Controller with a Load Balancer that
// owns per-application policy state, and Invokers that host
// application containers, honouring the keep-alive duration carried on
// each activation and pre-warming containers on request.
//
// The controller calls the pinned invoker directly, on the caller's
// goroutine; OpenWhisk's Kafka queue between the two is omitted.
//
// Containers are simulated workers: a cold start costs a configurable
// delay and function execution occupies the container for the
// requested duration, both as timers on a pluggable Clock, so nothing
// blocks. On a VirtualClock whole 8-hour experiments replay in
// milliseconds and repeat bit for bit (§5.3's trace replay).
package platform

import (
	"cmp"
	"container/heap"
	"sync"
	"time"
)

// Clock abstracts time so the platform can run on virtual time.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time
	// AfterFunc runs f after a (possibly virtual) duration, returning
	// a timer that can be stopped.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a pending AfterFunc call. Stop cancels it and reports
// whether it was still pending, as time.Timer's Stop does.
type Timer interface {
	Stop() bool
}

// RealClock is the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (RealClock) AfterFunc(d time.Duration, f func()) Timer {
	return time.AfterFunc(d, f)
}

// ScaledClock runs virtual time Scale times faster than real time:
// a virtual minute passes in 60/Scale real seconds. The virtual epoch
// coincides with the real time at construction.
type ScaledClock struct {
	start time.Time
	scale float64
}

// NewScaledClock creates a clock running scale× real time. Scale must
// be >= 1.
func NewScaledClock(scale float64) *ScaledClock {
	if scale < 1 {
		scale = 1
	}
	return &ScaledClock{start: time.Now(), scale: scale}
}

// Now implements Clock.
func (c *ScaledClock) Now() time.Time {
	elapsed := time.Since(c.start)
	return c.start.Add(time.Duration(float64(elapsed) * c.scale))
}

// AfterFunc implements Clock.
func (c *ScaledClock) AfterFunc(d time.Duration, f func()) Timer {
	r := time.Duration(float64(d) / c.scale)
	if d > 0 && r <= 0 {
		r = time.Nanosecond
	}
	return time.AfterFunc(r, f)
}

// VirtualClock is a Clock whose time moves only when its owner steps
// it. Timers wait in a heap ordered by due time, then by the order
// they were scheduled, and fire on the stepping goroutine, so nothing
// sleeps and a run repeats bit for bit. The zero value reads the zero
// time.
type VirtualClock struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	timers timerHeap
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc implements Clock.
func (c *VirtualClock) AfterFunc(d time.Duration, f func()) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &virtualTimer{c: c, due: c.now.Add(max(d, 0)), seq: c.seq, f: f}
	c.seq++
	heap.Push(&c.timers, t)
	return t
}

// Step advances the clock to the earliest pending timer and fires it.
// It reports false, leaving the clock where it is, when none is
// pending.
func (c *VirtualClock) Step() bool { return c.fire(time.Time{}, false) }

// RunUntil fires, in order, every timer due before t, then sets the
// clock to t. A timer due exactly at t stays pending, so what the
// caller does at t comes first: an arrival at t finds a container
// whose keep-alive ends at t still loaded, as the simulator's
// inclusive window edge has it (kernel.Classify).
func (c *VirtualClock) RunUntil(t time.Time) {
	for c.fire(t, true) {
	}
}

// fire pops and runs the earliest timer, if one is pending and, when
// bounded, due before limit; otherwise a bounded fire moves the clock
// to limit. The callback runs without the lock, so it may schedule and
// stop timers.
func (c *VirtualClock) fire(limit time.Time, bounded bool) bool {
	c.mu.Lock()
	if len(c.timers) == 0 || bounded && !c.timers[0].due.Before(limit) {
		if bounded && c.now.Before(limit) {
			c.now = limit
		}
		c.mu.Unlock()
		return false
	}
	t := heap.Pop(&c.timers).(*virtualTimer)
	c.now = t.due
	c.mu.Unlock()
	t.f()
	return true
}

// virtualTimer is one VirtualClock timer; i is its heap index, -1 once
// it fired or was stopped.
type virtualTimer struct {
	c   *VirtualClock
	due time.Time
	seq uint64
	f   func()
	i   int
}

// Stop implements Timer.
func (t *virtualTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.i < 0 {
		return false
	}
	heap.Remove(&t.c.timers, t.i)
	return true
}

type timerHeap []*virtualTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	return cmp.Or(h[i].due.Compare(h[j].due), cmp.Compare(h[i].seq, h[j].seq)) < 0
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].i, h[j].i = i, j
}
func (h *timerHeap) Push(x any) {
	x.(*virtualTimer).i = len(*h)
	*h = append(*h, x.(*virtualTimer))
}
func (h *timerHeap) Pop() any {
	t := (*h)[len(*h)-1]
	*h, t.i = (*h)[:len(*h)-1], -1
	return t
}
