package qos

import (
	"reflect"
	"testing"

	"milan/internal/core"
)

// fillBox writes a pattern that is box i's alone into every field of it.
func fillBox(box *GrantBox, i int) {
	g := &box.Grant
	g.JobID, g.Chain, g.Quality, g.Trace, g.Shard = i, i+1, float64(i)/7, uint64(i)*3, i%5
	g.Placement.JobID, g.Placement.Chain = i, i+1
	for k := range box.Tasks {
		box.Tasks[k] = core.TaskPlacement{Task: k, Start: float64(i), Finish: float64(i + k + 1), Procs: i + k}
	}
	g.Placement.Tasks = box.Tasks[: 1+i%len(box.Tasks) : 1+i%len(box.Tasks)]
}

// TestGrantBoxesHandOutEachBoxOnce: across several refills every box Next
// returns is zeroed and no other call's, writing one changes no other, and
// a box kept from the first slab is intact after the later ones are cut.
func TestGrantBoxesHandOutEachBoxOnce(t *testing.T) {
	const n = 3*grantBoxSlab + 5
	var boxes GrantBoxes
	seen := make(map[*GrantBox]int, n)
	handed := make([]*GrantBox, 0, n)
	filled := make([]GrantBox, 0, n) // what each box was filled with
	for i := 0; i < n; i++ {
		box := boxes.Next()
		if j, dup := seen[box]; dup {
			t.Fatalf("call %d returned call %d's box %p", i, j, box)
		}
		if !reflect.DeepEqual(*box, GrantBox{}) {
			t.Fatalf("call %d returned a box that is not zeroed: %+v", i, *box)
		}
		seen[box] = i
		fillBox(box, i)
		handed, filled = append(handed, box), append(filled, *box)
		for j, kept := range handed {
			if !reflect.DeepEqual(*kept, filled[j]) {
				t.Fatalf("writing box %d changed box %d: %+v", i, j, *kept)
			}
		}
	}
}
