package obs

// Test-only handles on the tracer's accounting and the line bound.

// Total returns the number of spans ever completed.
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Total()
}

// Dropped returns how many completed spans were evicted from the ring.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Dropped()
}

// MaxLine is the longest line Lines accepts.
const MaxLine = maxLine
