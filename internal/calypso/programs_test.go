package calypso

// Realistic Calypso programs: the computations the original system was
// built for — regular data-parallel kernels written as sequences of
// parallel steps over CREW shared memory — exercised here with and without
// fault injection.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// matmulProgram multiplies two n x n matrices by row bands, one parallel
// step, width tasks.
func matmulProgram(rt *Runtime, a, b [][]float64, width int) ([][]float64, error) {
	n := len(a)
	rt.Store().set("A", a)
	rt.Store().set("B", b)
	err := rt.Parallel(width, func(ctx *TaskCtx, w, num int) error {
		ma, _ := readAs[[][]float64](ctx, "A")
		mb, _ := readAs[[][]float64](ctx, "B")
		band := make([][]float64, 0, n/w+1)
		var rows []int
		for i := num; i < n; i += w {
			rows = append(rows, i)
			row := make([]float64, n)
			for j := 0; j < n; j++ {
				var sum float64
				for k := 0; k < n; k++ {
					sum += ma[i][k] * mb[k][j]
				}
				row[j] = sum
			}
			band = append(band, row)
		}
		ctx.Write(fmt.Sprintf("C.rows.%d", num), rows)
		ctx.Write(fmt.Sprintf("C.band.%d", num), band)
		return nil
	})
	if err != nil {
		return nil, err
	}
	c := make([][]float64, n)
	for num := 0; num < width; num++ {
		rows, _ := GetAs[[]int](rt.Store(), fmt.Sprintf("C.rows.%d", num))
		band, _ := GetAs[[][]float64](rt.Store(), fmt.Sprintf("C.band.%d", num))
		for bi, i := range rows {
			c[i] = band[bi]
		}
	}
	return c, nil
}

func randMatrix(rng *rand.Rand, n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = rng.Float64()*2 - 1
		}
	}
	return m
}

func serialMatmul(a, b [][]float64) [][]float64 {
	n := len(a)
	c := make([][]float64, n)
	for i := 0; i < n; i++ {
		c[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				c[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return c
}

func TestMatrixMultiplyMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 24
	a, b := randMatrix(rng, n), randMatrix(rng, n)
	want := serialMatmul(a, b)

	for _, tc := range []struct {
		name   string
		faults *FaultPlan
	}{
		{"clean", nil},
		{"faulty", &FaultPlan{TransientProb: 0.25, CrashProb: 0.05, MaxCrashes: 3, Seed: 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := New(Config{Workers: 4, Faults: tc.faults})
			if err != nil {
				t.Fatal(err)
			}
			got, err := matmulProgram(rt, a, b, 6)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				for j := range want[i] {
					if math.Abs(got[i][j]-want[i][j]) > 1e-9 {
						t.Fatalf("C[%d][%d] = %v, want %v", i, j, got[i][j], want[i][j])
					}
				}
			}
		})
	}
}

// jacobiProgram runs `iters` Jacobi relaxation sweeps over a 1-D rod with
// fixed boundary values: each sweep is one parallel step (the iterative
// structure task_loop models).
func jacobiProgram(rt *Runtime, initial []float64, iters, width int) ([]float64, error) {
	rt.Store().set("u", initial)
	n := len(initial)
	for it := 0; it < iters; it++ {
		err := rt.Parallel(width, func(ctx *TaskCtx, w, num int) error {
			u, _ := readAs[[]float64](ctx, "u")
			var idx []int
			var vals []float64
			for i := 1 + num; i < n-1; i += w {
				idx = append(idx, i)
				vals = append(vals, (u[i-1]+u[i+1])/2)
			}
			ctx.Write(fmt.Sprintf("j.idx.%d", num), idx)
			ctx.Write(fmt.Sprintf("j.val.%d", num), vals)
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Sequential code between steps merges the sweep (CREW: the next
		// step reads the merged state).
		u, _ := GetAs[[]float64](rt.Store(), "u")
		next := append([]float64(nil), u...)
		for num := 0; num < width; num++ {
			idx, _ := GetAs[[]int](rt.Store(), fmt.Sprintf("j.idx.%d", num))
			vals, _ := GetAs[[]float64](rt.Store(), fmt.Sprintf("j.val.%d", num))
			for k, i := range idx {
				next[i] = vals[k]
			}
		}
		rt.Store().set("u", next)
	}
	u, _ := GetAs[[]float64](rt.Store(), "u")
	return u, nil
}

func TestJacobiConvergesToLinearProfile(t *testing.T) {
	const n = 33
	initial := make([]float64, n)
	initial[0], initial[n-1] = 0, 1 // boundary conditions
	rt, err := New(Config{
		Workers: 4,
		Faults:  &FaultPlan{TransientProb: 0.1, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := jacobiProgram(rt, initial, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Steady state of the 1-D Laplace equation: a straight line between
	// the boundary values.
	for i := range u {
		want := float64(i) / float64(n-1)
		if math.Abs(u[i]-want) > 1e-3 {
			t.Fatalf("u[%d] = %v, want %v", i, u[i], want)
		}
	}
	m := rt.Metrics()
	if m.Steps != 2000 {
		t.Fatalf("steps = %d", m.Steps)
	}
	if m.Transients == 0 {
		t.Fatal("no transient faults injected (seed-dependent)")
	}
}

// TestJacobiDeterministicAcrossWorkerCounts: the computation commutes with
// parallelism — CREW semantics guarantee every worker count produces the
// same state.
func TestJacobiDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 17
	initial := make([]float64, n)
	initial[n-1] = 1
	var results [][]float64
	for _, workers := range []int{1, 2, 8} {
		rt, err := New(Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		u, err := jacobiProgram(rt, initial, 50, workers)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, u)
	}
	for i := 1; i < len(results); i++ {
		for k := range results[0] {
			if results[i][k] != results[0][k] {
				t.Fatalf("worker-count dependence at cell %d: %v vs %v",
					k, results[i][k], results[0][k])
			}
		}
	}
}
