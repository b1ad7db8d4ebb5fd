// Package platform implements an in-process FaaS control plane
// mirroring the OpenWhisk architecture the paper modifies (§4.3,
// Figure 13): a REST front end, a Controller with a Load Balancer that
// owns per-application policy state, and Invokers that host
// application containers, honouring the keep-alive duration carried on
// each activation and pre-warming containers on request.
//
// The controller calls the pinned invoker directly, on the caller's
// goroutine. OpenWhisk puts Kafka between the two; it is omitted
// because every activation here is blocking — the caller waits for the
// outcome — so a queue would only add a hand-off per invocation.
//
// Containers are simulated workers: a cold start costs a configurable
// delay and function execution occupies the container for the
// requested duration, both measured on a pluggable Clock so whole
// 8-hour experiments replay in seconds of real time (§5.3's scaled
// trace replay).
package platform

import "time"

// Clock abstracts time so experiments can run on accelerated time.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time
	// Sleep blocks for a (possibly virtual) duration.
	Sleep(d time.Duration)
	// AfterFunc runs f after a (possibly virtual) duration, returning
	// a timer that can be stopped.
	AfterFunc(d time.Duration, f func()) *time.Timer
}

// RealClock is the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (RealClock) Sleep(d time.Duration) { time.Sleep(d) }

// AfterFunc implements Clock.
func (RealClock) AfterFunc(d time.Duration, f func()) *time.Timer {
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

// Sleep implements Clock.
func (c *ScaledClock) Sleep(d time.Duration) {
	time.Sleep(c.real(d))
}

// AfterFunc implements Clock.
func (c *ScaledClock) AfterFunc(d time.Duration, f func()) *time.Timer {
	return time.AfterFunc(c.real(d), f)
}

func (c *ScaledClock) real(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	r := time.Duration(float64(d) / c.scale)
	if r <= 0 {
		r = time.Nanosecond
	}
	return r
}
