package durable

import "milan/internal/frame"

// Test-only handles on the plane and the record codec.

// Snapshot forces a checkpoint and waits for it: the state at the log head
// written as the newest snapshot, the log truncated behind it.
func (p *Plane) Snapshot() error {
	for {
		p.mu.Lock()
		if err := p.store.Poisoned(); err != nil {
			p.mu.Unlock()
			return err
		}
		ck, started := p.checkpointLocked()
		p.mu.Unlock()
		ck.wait()
		if ck.err != nil {
			return ck.err
		}
		if started {
			p.mu.Lock()
			p.collectLocked(ck)
			p.mu.Unlock()
			return nil
		}
		// That one was cut before this call: take another.
	}
}

// DurableLSN returns the highest LSN known synced to stable storage.
func (p *Plane) DurableLSN() uint64 { return p.store.DurableLSN() }

// framed returns payload's frame as one byte slice.
func framed(payload []byte) []byte {
	b := make([]byte, frame.HeaderLen, frame.HeaderLen+len(payload))
	frame.PutHeader(b, payload)
	return append(b, payload...)
}

// encodeRecord serializes the record payload (no framing).
func encodeRecord(r *Record) []byte {
	return appendRecord(make([]byte, 0, 64+32*len(r.Tasks)), r)
}
