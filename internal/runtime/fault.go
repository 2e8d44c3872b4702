package runtime

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrWorkerFault is the sentinel matched (via errors.Is) by every
// transport-attributable failure: exec deadlines, lost connections, send
// failures, and tasks abandoned because a device stayed down past the retry
// budget. Worker-reported application errors (bad geometry, model not
// loaded) are NOT worker faults — they are deterministic and never retried.
var ErrWorkerFault = errors.New("runtime: worker fault")

// FaultError attributes a transport failure to a device. It matches
// ErrWorkerFault under errors.Is, so callers can classify task errors
// without string inspection.
type FaultError struct {
	// Device is the cluster device index (-1 when unknown).
	Device int
	// Worker is the worker id from its hello (may be empty pre-handshake).
	Worker string
	// Kind classifies the fault.
	Kind FaultKind
	// Err is the underlying transport error.
	Err error
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("runtime: device %d (%s) %s: %v", e.Device, e.Worker, e.Kind, e.Err)
}

func (e *FaultError) Unwrap() error { return e.Err }

// Is matches ErrWorkerFault so typed checks need no FaultError import.
func (e *FaultError) Is(target error) bool { return target == ErrWorkerFault }

// FaultKind classifies a fault-handling observation.
type FaultKind string

// Fault kinds recorded in pipeline fault events.
const (
	// FaultTimeout: an exec exceeded its deadline; the connection is
	// considered wedged and is failed.
	FaultTimeout FaultKind = "timeout"
	// FaultConnLost: the connection died (read error, send error, reset).
	FaultConnLost FaultKind = "conn-lost"
	// FaultRedialed: a redial attempt reconnected the device.
	FaultRedialed FaultKind = "redialed"
	// FaultDown: the device exhausted its redial budget and is out of the
	// pipeline for good.
	FaultDown FaultKind = "down"
	// FaultRebalanced: a stage re-split its strips across the survivors.
	FaultRebalanced FaultKind = "rebalanced"
	// FaultRetried: an in-flight tile was re-executed on a healthy replica.
	FaultRetried FaultKind = "retried"
	// FaultPlanSwapped: Swap installed another plan; Detail is the caller's
	// reason (the gateway records λ and both Theorem-2 latencies). Not a
	// fault, but the journal is where control-plane decisions are kept.
	FaultPlanSwapped FaultKind = "plan-swapped"
)

// FaultEvent is one entry in the pipeline's fault log.
type FaultEvent struct {
	Time time.Time
	// Stage is the stage index the event belongs to (-1 for pipeline-wide).
	Stage int
	// Device is the cluster device index (-1 when unknown).
	Device int
	// Worker is the worker id.
	Worker string
	Kind   FaultKind
	// Detail is a human-readable elaboration (backoff, new strip layout, …).
	Detail string
}

func (e FaultEvent) String() string {
	s := fmt.Sprintf("stage %d device %d (%s): %s", e.Stage, e.Device, e.Worker, e.Kind)
	if e.Detail != "" {
		s += " — " + e.Detail
	}
	return s
}

// maxFaultEvents caps the fault log so a flapping device cannot grow the
// coordinator's memory without bound; overflow is counted, not stored.
const maxFaultEvents = 256

// faultLog is the pipeline's bounded, thread-safe fault journal.
type faultLog struct {
	mu      sync.Mutex
	events  []FaultEvent
	dropped int
}

func (fl *faultLog) add(ev FaultEvent) {
	ev.Time = time.Now()
	fl.mu.Lock()
	if len(fl.events) < maxFaultEvents {
		fl.events = append(fl.events, ev)
	} else {
		fl.dropped++
	}
	fl.mu.Unlock()
}

// snapshot returns a copy of the journal and the overflow count.
func (fl *faultLog) snapshot() ([]FaultEvent, int) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	out := make([]FaultEvent, len(fl.events))
	copy(out, fl.events)
	return out, fl.dropped
}

// workerSlot is one stage position's mutable connection state. The stage
// driver reads the current client per dispatch; fault handling swaps it out,
// a single redial goroutine tries to bring it back, and after the redial
// budget the slot goes down for good (triggering a stage re-balance).
type workerSlot struct {
	deviceIdx int
	addr      string
	workerID  string

	mu        sync.Mutex
	wc        *workerClient // nil while disconnected
	redialing bool
	down      bool
}

// current returns the live client, or nil while disconnected/down.
func (s *workerSlot) current() *workerClient {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wc
}

// isDown reports whether the slot is permanently out.
func (s *workerSlot) isDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// fault detaches wc from the slot (if it is still the current client) and
// reports whether the caller should start the redial loop.
func (s *workerSlot) fault(wc *workerClient) (startRedial bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wc == wc {
		s.wc = nil
	}
	if s.wc == nil && !s.redialing && !s.down {
		s.redialing = true
		return true
	}
	return false
}

// reconnected installs a fresh client after a successful redial.
func (s *workerSlot) reconnected(wc *workerClient) {
	s.mu.Lock()
	s.wc = wc
	s.redialing = false
	s.mu.Unlock()
}

// markDown retires the slot permanently.
func (s *workerSlot) markDown() {
	s.mu.Lock()
	s.down = true
	s.redialing = false
	s.wc = nil
	s.mu.Unlock()
}
