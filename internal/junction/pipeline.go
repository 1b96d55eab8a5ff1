package junction

import (
	"fmt"
	"sort"

	"milan/internal/calypso"
)

// Quality scores detections against ground truth: detections within the
// tolerance radius of a true junction count as matches (each truth point
// matches at most once).
type Quality struct {
	Truth     int
	Detected  int
	Matched   int
	Precision float64
	Recall    float64
	F1        float64
}

// score computes detection quality with the given match radius.
func score(truth []Point, detected []Junction, radius float64) Quality {
	q := Quality{Truth: len(truth), Detected: len(detected)}
	used := make([]bool, len(detected))
	for _, t := range truth {
		best, bestD := -1, radius
		for i, d := range detected {
			if used[i] {
				continue
			}
			if dist := t.dist(d.P); dist <= bestD {
				best, bestD = i, dist
			}
		}
		if best >= 0 {
			used[best] = true
			q.Matched++
		}
	}
	if q.Detected > 0 {
		q.Precision = float64(q.Matched) / float64(q.Detected)
	}
	if q.Truth > 0 {
		q.Recall = float64(q.Matched) / float64(q.Truth)
	}
	if q.Precision+q.Recall > 0 {
		q.F1 = 2 * q.Precision * q.Recall / (q.Precision + q.Recall)
	}
	return q
}

// StepCost records the measured resource profile of one pipeline step: the
// amount of work (pixels examined) and the concurrency it ran with.  These
// are the profiles the QoS agent communicates to the arbitrator ("resource
// requirements ... obtained by profiling", Section 3.2).
type StepCost struct {
	Name  string
	Work  int // pixels examined
	Width int // parallel tasks used
}

// Result is the outcome of one pipeline run.
type Result struct {
	Params    Params
	Points    []Point    // step-1 interesting pixels
	Regions   []Region   // step-2 regions of interest
	Junctions []Junction // step-3 detections
	Costs     [3]StepCost
	Quality   Quality // filled by the caller via Score, or RunScored
}

// run executes the three-step junction detection pipeline as three Calypso
// parallel steps on the runtime: sampling partitioned by row bands, region
// marking as a single task (it is cheap and global), and per-region
// junction detection fanned out across tasks.
func run(rt *calypso.Runtime, im *Image, p Params) (*Result, error) {
	res := &Result{Params: p}
	width := rt.Workers()
	if width < 1 {
		width = 1
	}

	// Step 1: sample pixels in parallel row bands.
	band := (im.H + width - 1) / width
	if band < 1 {
		band = 1
	}
	err := rt.Parallel(width, func(ctx *calypso.TaskCtx, w, n int) error {
		lo := n * band
		hi := lo + band
		if hi > im.H {
			hi = im.H
		}
		if lo >= hi {
			ctx.Write(key("sample", n), bandResult{})
			return nil
		}
		pts, examined := samplePixels(im, p, lo, hi)
		ctx.Write(key("sample", n), bandResult{Points: pts, Work: examined})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("junction: sample step: %w", err)
	}
	var allPts []Point
	sampleWork := 0
	for n := 0; n < width; n++ {
		br, ok := calypso.GetAs[bandResult](rt.Store(), key("sample", n))
		if !ok {
			return nil, fmt.Errorf("junction: missing sample band %d", n)
		}
		allPts = append(allPts, br.Points...)
		sampleWork += br.Work
	}
	sort.Slice(allPts, func(a, b int) bool {
		if allPts[a].Y != allPts[b].Y {
			return allPts[a].Y < allPts[b].Y
		}
		return allPts[a].X < allPts[b].X
	})
	res.Points = allPts
	res.Costs[0] = StepCost{Name: "sampleImage", Work: sampleWork, Width: width}

	// Step 2: mark regions of interest (sequential task inside a step —
	// the paper's second step is cheap bookkeeping around the clusters).
	err = rt.Parallel(1, func(ctx *calypso.TaskCtx, w, n int) error {
		regs := markRegions(im, p, allPts)
		ctx.Write("regions", regs)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("junction: region step: %w", err)
	}
	regs, _ := calypso.GetAs[[]Region](rt.Store(), "regions")
	res.Regions = regs
	res.Costs[1] = StepCost{Name: "markRegion", Work: len(allPts), Width: 1}

	// Step 3: detect junctions per region, fanned out across tasks.
	if len(regs) > 0 {
		fan := width
		if fan > len(regs) {
			fan = len(regs)
		}
		err = rt.Parallel(fan, func(ctx *calypso.TaskCtx, w, n int) error {
			// A CREW read: the regions as step 2 left the store.
			v, _ := ctx.Read("regions")
			shared, _ := v.([]Region)
			var js []Junction
			work := 0
			for i := n; i < len(shared); i += w {
				j, examined := detectJunctions(im, p, shared[i])
				js = append(js, j...)
				work += examined
			}
			ctx.Write(key("detect", n), detectResult{Junctions: js, Work: work})
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("junction: detect step: %w", err)
		}
		detectWork := 0
		for n := 0; n < fan; n++ {
			dr, ok := calypso.GetAs[detectResult](rt.Store(), key("detect", n))
			if !ok {
				return nil, fmt.Errorf("junction: missing detect shard %d", n)
			}
			res.Junctions = append(res.Junctions, dr.Junctions...)
			detectWork += dr.Work
		}
		sort.Slice(res.Junctions, func(a, b int) bool {
			if res.Junctions[a].P.Y != res.Junctions[b].P.Y {
				return res.Junctions[a].P.Y < res.Junctions[b].P.Y
			}
			return res.Junctions[a].P.X < res.Junctions[b].P.X
		})
		res.Costs[2] = StepCost{Name: "computeJunctions", Work: detectWork, Width: fan}
	} else {
		res.Costs[2] = StepCost{Name: "computeJunctions", Width: width}
	}
	return res, nil
}

// RunScored runs the pipeline and scores it against ground truth.
func RunScored(rt *calypso.Runtime, im *Image, p Params, truth []Point, radius float64) (*Result, error) {
	res, err := run(rt, im, p)
	if err != nil {
		return nil, err
	}
	res.Quality = score(truth, res.Junctions, radius)
	return res, nil
}

// bandResult and detectResult are the shard values written to the store.
type bandResult struct {
	Points []Point
	Work   int
}

type detectResult struct {
	Junctions []Junction
	Work      int
}

func key(prefix string, n int) string { return fmt.Sprintf("junction.%s.%d", prefix, n) }
