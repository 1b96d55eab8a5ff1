// Package resbroker implements the MILAN ResourceBroker (Section 2): a
// registry of machines that dynamically associates resources with parallel
// computations according to user-specified policies, and notifies
// subscribers (such as the QoS arbitrator) when capacity changes so they
// can trigger renegotiation.
package resbroker

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Resource is one machine contributed to the pool.
type Resource struct {
	ID    string
	Procs int
	// Speed is a relative performance factor (1.0 = baseline); policies
	// may weight allocations by it.
	Speed float64
}

// validate checks the resource description.
func (r Resource) validate() error {
	if r.ID == "" {
		return errors.New("resbroker: resource needs an ID")
	}
	if r.Procs < 1 {
		return fmt.Errorf("resbroker: resource %s has %d procs", r.ID, r.Procs)
	}
	if r.Speed <= 0 {
		return fmt.Errorf("resbroker: resource %s has speed %v", r.ID, r.Speed)
	}
	return nil
}

// Share is a slice of one resource granted to a computation.
type Share struct {
	ResourceID string
	Procs      int
}

// Request asks the broker for capacity on behalf of a computation.
type Request struct {
	Computation string
	MinProcs    int
}

// EventKind classifies capacity-change notifications.
type EventKind int

// Event kinds.
const (
	eventRegistered EventKind = iota
	eventDeregistered
	eventBound
	eventReleased
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case eventRegistered:
		return "registered"
	case eventDeregistered:
		return "deregistered"
	case eventBound:
		return "bound"
	case eventReleased:
		return "released"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event describes one capacity change.
type Event struct {
	Kind        EventKind
	Resource    string
	Computation string
	// FreeProcs is the pool's total uncommitted capacity after the event;
	// the arbitrator uses it to decide whether renegotiation is worthwhile.
	FreeProcs int
}

// Policy decides how a request maps onto eligible resources.
type Policy interface {
	// Allocate returns shares covering req.MinProcs from the eligible
	// resources, each annotated with its free capacity.  It must not
	// return shares exceeding free capacity.
	Allocate(req Request, eligible []Availability) ([]Share, error)
	// Name identifies the policy in errors and logs.
	Name() string
}

// Availability pairs a resource with its current free processor count.
type Availability struct {
	Resource Resource
	Free     int
}

// firstFit packs the request onto the fewest resources in registration
// order — the default policy.
type firstFit struct{}

// Name implements Policy.
func (firstFit) Name() string { return "first-fit" }

// Allocate implements Policy.
func (firstFit) Allocate(req Request, eligible []Availability) ([]Share, error) {
	var shares []Share
	got := 0
	for _, a := range eligible {
		if got >= req.MinProcs {
			break
		}
		take := req.MinProcs - got
		if take > a.Free {
			take = a.Free
		}
		if take <= 0 {
			continue
		}
		shares = append(shares, Share{ResourceID: a.Resource.ID, Procs: take})
		got += take
	}
	if got < req.MinProcs {
		return nil, fmt.Errorf("resbroker: first-fit: %d procs available, need %d", got, req.MinProcs)
	}
	return shares, nil
}

// FastestFirst prefers resources with the highest speed factor, spreading
// the request over the quickest machines.
type FastestFirst struct{}

// Name implements Policy.
func (FastestFirst) Name() string { return "fastest-first" }

// Allocate implements Policy.
func (FastestFirst) Allocate(req Request, eligible []Availability) ([]Share, error) {
	sorted := append([]Availability(nil), eligible...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Resource.Speed > sorted[j].Resource.Speed
	})
	return firstFit{}.Allocate(req, sorted)
}

// Binding records the shares currently granted to a computation.
type Binding struct {
	Computation string
	Shares      []Share
}

// Procs returns the binding's total processor count.
func (b Binding) Procs() int {
	total := 0
	for _, s := range b.Shares {
		total += s.Procs
	}
	return total
}

// Broker is the resource broker.  It is safe for concurrent use.
type Broker struct {
	mu        sync.Mutex
	policy    Policy
	resources map[string]Resource
	order     []string       // registration order for deterministic allocation
	committed map[string]int // per-resource procs committed
	bindings  map[string]Binding
	subs      []func(Event)
	// pending is the FIFO of events enqueued (under mu, in the same
	// critical section as the state change they describe) but not yet
	// delivered; delivering marks that some goroutine is draining it.
	// Together they guarantee subscribers observe events in state-change
	// order even when mutations race on different goroutines.
	pending    []Event
	delivering bool
}

// New returns a broker using the given policy (nil means firstFit).
func New(policy Policy) *Broker {
	if policy == nil {
		policy = firstFit{}
	}
	return &Broker{
		policy:    policy,
		resources: make(map[string]Resource),
		committed: make(map[string]int),
		bindings:  make(map[string]Binding),
	}
}

// Subscribe registers a capacity-change observer; it is called
// synchronously, in order, with every event, after the broker's lock is
// released (so observers may call back into the broker).
func (b *Broker) Subscribe(fn func(Event)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subs = append(b.subs, fn)
}

// Follow makes something's machine size follow the pool: after every
// machine registration or deregistration it calls apply with the pool's
// total processor count (the MILAN arbitrator "monitors system resources
// and triggers renegotiation on detecting a significant change in resource
// levels").  procs is the follower's size at attach; a change that leaves
// the total within threshold processors of the last one applied is not
// significant and is suppressed (0 follows every change).  Bindings of
// computations do not change the pool, and an empty pool cannot be resized
// onto; both are ignored.  The broker offers no unsubscribe, so the
// returned stop detaches by flag; it may be called from any goroutine,
// concurrently with the mutations that deliver events.
func (b *Broker) Follow(procs, threshold int, apply func(procs int)) (stop func()) {
	var stopped atomic.Bool
	last := procs // events are delivered by one goroutine at a time
	b.Subscribe(func(ev Event) {
		if stopped.Load() || (ev.Kind != eventRegistered && ev.Kind != eventDeregistered) {
			return
		}
		total := b.TotalProcs()
		if total < 1 {
			return
		}
		if diff := total - last; diff < threshold && diff > -threshold {
			return
		}
		last = total
		apply(total)
	})
	return func() { stopped.Store(true) }
}

// Register adds a resource to the pool.
func (b *Broker) Register(r Resource) error {
	if err := r.validate(); err != nil {
		return err
	}
	b.mu.Lock()
	if _, dup := b.resources[r.ID]; dup {
		b.mu.Unlock()
		return fmt.Errorf("resbroker: resource %s already registered", r.ID)
	}
	b.resources[r.ID] = r
	b.order = append(b.order, r.ID)
	notify := b.notifyLocked(Event{Kind: eventRegistered, Resource: r.ID, FreeProcs: b.freeLocked()})
	b.mu.Unlock()
	notify()
	return nil
}

// Deregister removes a resource.  Removal fails while a computation still
// holds a share of it (the caller must release bindings first, mirroring
// the non-preemptive allocation model).
func (b *Broker) Deregister(id string) error {
	b.mu.Lock()
	if _, ok := b.resources[id]; !ok {
		b.mu.Unlock()
		return fmt.Errorf("resbroker: resource %s not registered", id)
	}
	if b.committed[id] > 0 {
		err := fmt.Errorf("resbroker: resource %s has %d committed procs", id, b.committed[id])
		b.mu.Unlock()
		return err
	}
	delete(b.resources, id)
	delete(b.committed, id)
	for i, oid := range b.order {
		if oid == id {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
	notify := b.notifyLocked(Event{Kind: eventDeregistered, Resource: id, FreeProcs: b.freeLocked()})
	b.mu.Unlock()
	notify()
	return nil
}

// Bind allocates capacity for a computation under the broker's policy.
func (b *Broker) Bind(req Request) (Binding, error) {
	if req.Computation == "" {
		return Binding{}, errors.New("resbroker: request needs a computation name")
	}
	if req.MinProcs < 1 {
		return Binding{}, fmt.Errorf("resbroker: request needs MinProcs >= 1, got %d", req.MinProcs)
	}
	b.mu.Lock()
	if _, dup := b.bindings[req.Computation]; dup {
		b.mu.Unlock()
		return Binding{}, fmt.Errorf("resbroker: computation %s already bound", req.Computation)
	}
	var eligible []Availability
	for _, id := range b.order {
		r := b.resources[id]
		free := r.Procs - b.committed[id]
		if free > 0 {
			eligible = append(eligible, Availability{Resource: r, Free: free})
		}
	}
	shares, err := b.policy.Allocate(req, eligible)
	if err != nil {
		b.mu.Unlock()
		return Binding{}, err
	}
	// Validate the policy's answer before committing.
	for _, s := range shares {
		r, ok := b.resources[s.ResourceID]
		if !ok {
			b.mu.Unlock()
			return Binding{}, fmt.Errorf("resbroker: policy %s allocated unknown resource %s", b.policy.Name(), s.ResourceID)
		}
		if s.Procs < 1 || b.committed[s.ResourceID]+s.Procs > r.Procs {
			b.mu.Unlock()
			return Binding{}, fmt.Errorf("resbroker: policy %s overcommitted resource %s", b.policy.Name(), s.ResourceID)
		}
	}
	for _, s := range shares {
		b.committed[s.ResourceID] += s.Procs
	}
	binding := Binding{Computation: req.Computation, Shares: shares}
	b.bindings[req.Computation] = binding
	notify := b.notifyLocked(Event{Kind: eventBound, Computation: req.Computation, FreeProcs: b.freeLocked()})
	b.mu.Unlock()
	notify()
	return binding, nil
}

// Release returns a computation's shares to the pool.
func (b *Broker) Release(computation string) error {
	b.mu.Lock()
	binding, ok := b.bindings[computation]
	if !ok {
		b.mu.Unlock()
		return fmt.Errorf("resbroker: computation %s not bound", computation)
	}
	for _, s := range binding.Shares {
		b.committed[s.ResourceID] -= s.Procs
		if b.committed[s.ResourceID] < 0 {
			b.committed[s.ResourceID] = 0
		}
	}
	delete(b.bindings, computation)
	notify := b.notifyLocked(Event{Kind: eventReleased, Computation: computation, FreeProcs: b.freeLocked()})
	b.mu.Unlock()
	notify()
	return nil
}

// TotalProcs returns the pool's registered capacity.
func (b *Broker) TotalProcs() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	total := 0
	for _, r := range b.resources {
		total += r.Procs
	}
	return total
}

// FreeProcs returns the pool's uncommitted capacity.
func (b *Broker) FreeProcs() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.freeLocked()
}

// Bindings returns a snapshot of current bindings, sorted by computation.
func (b *Broker) Bindings() []Binding {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Binding, 0, len(b.bindings))
	for _, bd := range b.bindings {
		out = append(out, bd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Computation < out[j].Computation })
	return out
}

func (b *Broker) freeLocked() int {
	free := 0
	for id, r := range b.resources {
		free += r.Procs - b.committed[id]
	}
	return free
}

// notifyLocked enqueues the event in the delivery FIFO — still inside the
// critical section that performed the state change, so queue order equals
// state-change order — and returns the drain entry point to be called
// after the lock is released, so observers may call back into the broker
// without deadlocking.
//
// Delivery ordering: the returned closure used to carry its event
// directly, which let two racing mutations deliver out of order (A
// commits, B commits, B's goroutine delivers first).  The FIFO plus the
// delivering flag close that race: exactly one goroutine drains at a
// time, in queue order, and reentrant broker calls from inside a
// subscriber simply enqueue — the active drainer picks them up next.
func (b *Broker) notifyLocked(ev Event) func() {
	b.pending = append(b.pending, ev)
	return b.drain
}

// drain delivers pending events in order.  If another goroutine is
// already draining (including the caller's own stack, when a subscriber
// reentered the broker), it returns immediately — the active drainer owns
// the queue until it is empty.
func (b *Broker) drain() {
	b.mu.Lock()
	if b.delivering {
		b.mu.Unlock()
		return
	}
	b.delivering = true
	for len(b.pending) > 0 {
		ev := b.pending[0]
		b.pending = b.pending[1:]
		subs := make([]func(Event), len(b.subs))
		copy(subs, b.subs)
		b.mu.Unlock()
		for _, fn := range subs {
			fn(ev)
		}
		b.mu.Lock()
	}
	b.delivering = false
	b.mu.Unlock()
}
