package platform

import (
	"maps"
	"slices"
	"sync"
	"time"
)

// activation is one invocation the controller hands an invoker,
// mirroring OpenWhisk's activation message, which the paper extends
// with a keep-alive field (§4.3, modification #2): the policy's
// retention travels with the invocation it follows.
type activation struct {
	app, fn string
	// exec is the function's execution duration (virtual time).
	exec     time.Duration
	memoryMB float64
	// keepAlive is the container retention the policy chose.
	keepAlive time.Duration
	// unloadAfterExec removes the container right after the execution
	// ends (the policy will pre-warm later).
	unloadAfterExec bool
}

// Outcome reports one completed invocation.
type Outcome struct {
	App      string
	Function string
	Cold     bool
	// Latency is the virtual time from activation receipt to
	// execution completion (cold-start delay + init + exec).
	Latency time.Duration
	// Start and End are virtual timestamps of the execution.
	Start time.Time
	End   time.Time
	// Invoker is the index of the serving invoker.
	Invoker int
}

// container is a loaded application instance on an invoker, the unit
// the keep-alive policy manages (the "worker" of §2). Its lifecycle is
// driven by the invoker's ContainerProxy logic: loaded on cold start
// or pre-warm, refreshed on each use, unloaded when its keep-alive
// timer fires, right after an execution the policy follows with a
// pre-warm, or when the platform stops.
type container struct {
	app      string
	memoryMB float64
	loadedAt time.Time
	busy     int   // in-flight executions
	timer    Timer // pending keep-alive expiry
}

// InvokerStats summarizes one invoker's activity.
type InvokerStats struct {
	ColdStarts int
	WarmStarts int
	Prewarms   int
	Unloads    int
	// MemoryMBSeconds integrates loaded container memory over virtual
	// time — the worker-memory metric the paper's OpenWhisk experiment
	// reports (§5.3).
	MemoryMBSeconds float64
	// LoadedContainers is the current container count.
	LoadedContainers int
}

// Invoker hosts containers and executes activations, mirroring the
// OpenWhisk Invoker with the paper's modified ContainerProxy that
// honours per-activation keep-alive (§4.3, modification #3). It has no
// goroutine of its own: an activation starts on the invoking caller's
// and goes on in clock timer callbacks, as pre-warms and keep-alive
// expiries do.
type Invoker struct {
	id    int
	clock Clock
	// coldStart is the container instantiation delay (virtual time).
	coldStart time.Duration
	// runtimeInit is the in-memory language runtime initiation cost
	// paid on cold containers (§5.3 notes O(10ms) init vs O(100ms)
	// container start).
	runtimeInit time.Duration

	mu         sync.Mutex
	containers map[string]*container
	stats      InvokerStats
}

func newInvoker(id int, clock Clock, coldStart, runtimeInit time.Duration) *Invoker {
	return &Invoker{
		id:          id,
		clock:       clock,
		coldStart:   coldStart,
		runtimeInit: runtimeInit,
		containers:  make(map[string]*container),
	}
}

// dropAll unloads every container, settling its memory integral.
func (inv *Invoker) dropAll() {
	inv.settledStats()
	inv.mu.Lock()
	defer inv.mu.Unlock()
	for app, c := range inv.containers {
		inv.dropLocked(app, c)
	}
}

// activate runs one invocation and calls done with its outcome once it
// completes: warm if a container is loaded, otherwise after a cold
// start pays the instantiation delay. The cold start and the execution
// are clock timers, so activate never blocks; a warm zero-length
// execution completes before it returns.
func (inv *Invoker) activate(a activation, done func(Outcome)) {
	arrive := inv.clock.Now()
	// run starts the execution, on the app's container if one is loaded
	// (another in-flight cold start may have loaded it). The caller holds
	// inv.mu, which run releases.
	run := func(cold bool) {
		c, ok := inv.containers[a.app]
		if !ok {
			c = &container{app: a.app, memoryMB: a.memoryMB, loadedAt: inv.clock.Now()}
			inv.containers[a.app] = c
		}
		if cold {
			inv.stats.ColdStarts++
		} else {
			inv.stats.WarmStarts++
		}
		c.busy++
		if c.timer != nil {
			c.timer.Stop()
			c.timer = nil
		}
		inv.mu.Unlock()
		start := inv.clock.Now()
		finish := func() {
			end := inv.clock.Now()
			inv.mu.Lock()
			c.busy--
			if c.busy == 0 {
				if a.unloadAfterExec {
					inv.dropLocked(a.app, c)
				} else {
					inv.armKeepAliveLocked(c, a.keepAlive)
				}
			}
			inv.mu.Unlock()
			done(Outcome{
				App: a.app, Function: a.fn,
				Cold: cold, Latency: end.Sub(arrive),
				Start: start, End: end, Invoker: inv.id,
			})
		}
		if a.exec > 0 {
			inv.clock.AfterFunc(a.exec, finish)
		} else {
			finish()
		}
	}
	inv.mu.Lock()
	if _, warm := inv.containers[a.app]; warm {
		run(false)
		return
	}
	inv.mu.Unlock()
	// Cold start: instantiate the container, load runtime.
	inv.clock.AfterFunc(inv.coldStart+inv.runtimeInit, func() {
		inv.mu.Lock()
		run(true)
	})
}

// prewarm loads a container ahead of a predicted invocation.
func (inv *Invoker) prewarm(app string, memoryMB float64, keepAlive time.Duration) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if _, ok := inv.containers[app]; ok {
		return // already loaded
	}
	c := &container{app: app, memoryMB: memoryMB, loadedAt: inv.clock.Now()}
	inv.containers[app] = c
	inv.stats.Prewarms++
	inv.armKeepAliveLocked(c, keepAlive)
}

// armKeepAliveLocked (re)sets a container's keep-alive timer.
// Caller holds inv.mu.
func (inv *Invoker) armKeepAliveLocked(c *container, ka time.Duration) {
	if c.timer != nil {
		c.timer.Stop()
	}
	if ka <= 0 {
		ka = time.Nanosecond
	}
	app := c.app
	c.timer = inv.clock.AfterFunc(ka, func() {
		inv.mu.Lock()
		defer inv.mu.Unlock()
		cur, ok := inv.containers[app]
		if !ok || cur != c || cur.busy > 0 {
			return
		}
		inv.dropLocked(app, cur)
	})
}

// dropLocked removes a container and settles its memory integral.
// Caller holds inv.mu.
func (inv *Invoker) dropLocked(app string, c *container) {
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	resident := inv.clock.Now().Sub(c.loadedAt)
	if resident > 0 {
		inv.stats.MemoryMBSeconds += c.memoryMB * resident.Seconds()
	}
	inv.stats.Unloads++
	delete(inv.containers, app)
}

// settledStats folds the memory of still-loaded containers into the
// integral as of now, in app order so that it repeats to the last bit,
// and returns the invoker's counters.
func (inv *Invoker) settledStats() InvokerStats {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	now := inv.clock.Now()
	for _, app := range slices.Sorted(maps.Keys(inv.containers)) {
		c := inv.containers[app]
		inv.stats.MemoryMBSeconds += c.memoryMB * now.Sub(c.loadedAt).Seconds()
		c.loadedAt = now
	}
	s := inv.stats
	s.LoadedContainers = len(inv.containers)
	return s
}
