package durable

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"milan/internal/core"
)

func sampleRecords() []Record {
	return []Record{
		{Kind: KindAdmit, LSN: 1, Shard: 2, JobID: 7, Chain: 1, Quality: 0.875, Tunable: true,
			Tenant: "acme", Class: 2, Tasks: []core.TaskPlacement{
				{Task: 0, Procs: 4, Start: 1.5, Finish: 3.25},
				{Task: 1, Procs: 8, Start: 3.25, Finish: 5.5},
			}},
		{Kind: KindObserve, LSN: 2, Now: 42.125},
		{Kind: KindCapacity, LSN: 3, Shard: 1, Procs: 9},
		{Kind: KindReject, LSN: 4, JobID: 8, Tenant: "free", Class: 0},
		{Kind: kindShed, LSN: 5, JobID: 9, Tenant: "noisy", Class: 3, Reason: "tenant-quota"},
		{Kind: kindComplete, LSN: 6, Shard: 2, JobID: 7, Finish: 5.5},
		{Kind: kindRenegotiate, LSN: 7, Shard: 0, JobID: 11, Chain: 0, Quality: 0.5,
			Tasks: []core.TaskPlacement{{Task: 0, Procs: 2, Start: 6, Finish: 8}}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, want := range sampleRecords() {
		payload := encodeRecord(&want)
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s round trip:\n got %+v\nwant %+v", want.Kind, got, want)
		}
	}
}

func TestRecordDecodeRejectsCorruption(t *testing.T) {
	r := sampleRecords()[0]
	payload := encodeRecord(&r)

	// Every truncation must error, never panic.
	for n := 0; n < len(payload); n++ {
		if _, err := DecodeRecord(payload[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
	// Trailing garbage must error.
	if _, err := DecodeRecord(append(append([]byte(nil), payload...), 0xFF)); err == nil {
		t.Fatal("trailing byte decoded cleanly")
	}
	// Unknown kind must error.
	bad := append([]byte(nil), payload...)
	bad[0] = 200
	if _, err := DecodeRecord(bad); err == nil {
		t.Fatal("unknown kind decoded cleanly")
	}
	// An insane task count must be rejected before allocating.
	bad = append([]byte(nil), payload...)
	// Task count sits right after kind+lsn+shard+jobid+chain+quality+
	// tunable+tenant(len+4)+class.
	off := 1 + 8 + 4 + 8 + 4 + 8 + 1 + 4 + 4 + 4
	for i := 0; i < 4; i++ {
		bad[off+i] = 0xFF
	}
	if _, err := DecodeRecord(bad); err == nil || !strings.Contains(err.Error(), "task count") {
		t.Fatalf("insane task count: got %v", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	st, err := genesis(10, 3, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := []int{st.Shards[0].Profile.Capacity, st.Shards[1].Profile.Capacity, st.Shards[2].Profile.Capacity}; !reflect.DeepEqual(got, []int{4, 3, 3}) {
		t.Fatalf("genesis partition = %v", got)
	}
	st.LSN = 99
	st.Now = 17.25
	st.Shards[0].Stats = core.Stats{Admitted: 3, Rejected: 1, ReservedArea: 12.5, QualitySum: 2.25,
		ChainsTried: 9, HolesProbed: 40, PlanFailures: 2, TunableChosen: []int{1, 2}}
	st.Shards[1].Profile.Times = []float64{2.5, 5, 8}
	st.Shards[1].Profile.Used = []int{1, 2, 0}
	st.Shards[1].Profile.TrimmedBusy = 3.75
	st.Grants = []GrantRecord{{JobID: 4, Shard: 1, Chain: 1, Quality: 0.75, Tunable: true,
		Tenant: "t", Class: 1, Tasks: []core.TaskPlacement{{Task: 0, Procs: 2, Start: 5, Finish: 8}}}}

	payload := appendSnapshot(nil, &st)
	if len(payload) != snapshotSize(&st) {
		t.Fatalf("snapshot is %d bytes, sized up front as %d", len(payload), snapshotSize(&st))
	}
	// Sized up front: encoding again into the buffer it filled allocates
	// nothing.
	if n := testing.AllocsPerRun(10, func() { payload = appendSnapshot(payload[:0], &st) }); n != 0 {
		t.Fatalf("encoding into the buffer it filled before took %v allocations, want 0", n)
	}
	got, err := decodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("snapshot round trip:\n got %+v\nwant %+v", got, st)
	}
	if err := DiffStates(&got, &st); err != nil {
		t.Fatalf("diff of identical states: %v", err)
	}

	for n := 0; n < len(payload); n++ {
		if _, err := decodeSnapshot(payload[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
	if _, err := decodeSnapshot(append(append([]byte(nil), payload...), 1)); err == nil {
		t.Fatal("trailing byte decoded cleanly")
	}
}

func TestGrantFinishAndPrune(t *testing.T) {
	st := State{Now: 10, Grants: []GrantRecord{
		{JobID: 3, Tasks: []core.TaskPlacement{{Finish: 9}, {Finish: 12}}},
		{JobID: 1, Tasks: []core.TaskPlacement{{Finish: 10}}},
		{JobID: 2, Tasks: []core.TaskPlacement{{Finish: 10.5}}},
	}}
	st.prune()
	ids := make([]int, len(st.Grants))
	for i, g := range st.Grants {
		ids[i] = g.JobID
	}
	// Job 1 finished exactly at now (fully elapsed); 2 and 3 live, sorted.
	if !reflect.DeepEqual(ids, []int{2, 3}) {
		t.Fatalf("pruned grants = %v, want [2 3]", ids)
	}
	if f := st.Grants[1].finish(); f != 12 {
		t.Fatalf("finish = %v, want 12", f)
	}
}

// TestPruneLeavesCleanStateAlone: the plane hands compactTo grants it has
// already filtered and sorted; Prune must recognise that in one pass and
// neither reorder nor reallocate.
func TestPruneLeavesCleanStateAlone(t *testing.T) {
	st := State{Now: 10, Grants: []GrantRecord{
		{JobID: 1, Tasks: []core.TaskPlacement{{Finish: 11}}},
		{JobID: 2, Tasks: []core.TaskPlacement{{Finish: 10.5}}},
		{JobID: 5, Tasks: []core.TaskPlacement{{Finish: 30}}},
	}}
	want := append([]GrantRecord(nil), st.Grants...)
	first := &st.Grants[0]
	st.prune()
	if !reflect.DeepEqual(st.Grants, want) || &st.Grants[0] != first {
		t.Fatalf("prune touched a clean state: %+v", st.Grants)
	}
	// Out of order, nothing elapsed: sorted, all kept.
	st.Grants[0], st.Grants[2] = st.Grants[2], st.Grants[0]
	st.prune()
	if !reflect.DeepEqual(st.Grants, want) {
		t.Fatalf("prune of an unsorted state = %+v, want %+v", st.Grants, want)
	}
	// In order, the middle one elapsed: dropped.
	st.Now = 10.5
	st.prune()
	if len(st.Grants) != 2 || st.Grants[0].JobID != 1 || st.Grants[1].JobID != 5 {
		t.Fatalf("prune at now=10.5 kept %+v, want jobs 1 and 5", st.Grants)
	}
}

func TestFloatBitExactness(t *testing.T) {
	// The codec must preserve exact bits, including negative zero and
	// values that decimal round-tripping would mangle.
	vals := []float64{0, math.Copysign(0, -1), 0.1, 1.0 / 3.0, math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, v := range vals {
		r := Record{Kind: KindObserve, LSN: 1, Now: v}
		got, err := DecodeRecord(encodeRecord(&r))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Now) != math.Float64bits(v) {
			t.Fatalf("bits differ for %v", v)
		}
	}
}
