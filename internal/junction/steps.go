package junction

import (
	"math"
	"sort"
)

// Params are the application's control parameters (Section 4.3): the
// sampling granularity of step 1 and the search distance used to construct
// regions of interest in step 2, plus the fixed thresholds of the detector.
type Params struct {
	// Granularity samples every Granularity-th pixel in x and y in step 1.
	Granularity int
	// SearchDistance is the clustering radius for regions of interest; the
	// coarser the sampling, the larger it must be.
	SearchDistance float64
	// InterestThreshold is the neighborhood-contrast threshold of step 1.
	InterestThreshold float64
	// MinCluster is the minimum number of interesting pixels that form a
	// region of interest.
	MinCluster int
	// HullMargin grows each region's hull by this many pixels so junction
	// evidence just outside the sampled points is not lost.
	HullMargin int
	// CornerFilter selects the region-marking algorithm (the paper's
	// coarse-discrete tunability in step 2): when true, interesting pixels
	// are refined with a corner-selective gradient test before clustering,
	// yielding small regions tight around junction evidence.  Dense
	// sampling can afford this; sparse sampling misses the narrow corner
	// responses and must instead cluster broad contrast evidence with a
	// larger search distance, yielding larger regions.
	CornerFilter bool
	// CornerThreshold is the per-direction gradient magnitude required by
	// the corner filter.
	CornerThreshold float64
	// HarrisK and HarrisThreshold parameterize the step-3 operator.
	HarrisK         float64
	HarrisThreshold float64
}

// FineParams is the paper's fine configuration (sampleGranularity=16 analog:
// dense sampling, small search distance).
func FineParams() Params {
	return Params{
		Granularity:       2,
		SearchDistance:    8,
		InterestThreshold: 0.15,
		MinCluster:        1,
		HullMargin:        4,
		CornerFilter:      true,
		CornerThreshold:   0.05,
		HarrisK:           0.05,
		HarrisThreshold:   0.0004,
	}
}

// CoarseParams is the coarse configuration: cheap sparse sampling
// compensated by a larger search distance (larger regions, more step-3
// work).
func CoarseParams() Params {
	return Params{
		Granularity:       5,
		SearchDistance:    24,
		InterestThreshold: 0.15,
		MinCluster:        1,
		HullMargin:        10,
		HarrisK:           0.05,
		HarrisThreshold:   0.0004,
	}
}

// cornerLike reports whether the pixel has significant gradient in both
// directions (the refinement test of the fine region-marking algorithm).
func cornerLike(im *Image, x, y int, threshold float64) bool {
	gx, gy := sobel(im, x, y)
	return math.Abs(gx) > threshold && math.Abs(gy) > threshold
}

// interesting reports whether the pixel at (x, y) passes the step-1 quick
// test: the intensity spread across its 8-neighborhood exceeds the
// threshold.
func interesting(im *Image, x, y int, threshold float64) bool {
	min, max := math.Inf(1), math.Inf(-1)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			v := im.at(x+dx, y+dy)
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
	}
	return max-min > threshold
}

// samplePixels runs step 1 over the sub-grid rows [rowLo, rowHi): it tests
// every Granularity-th pixel and returns the interesting ones plus the
// number of pixels examined (the step's work).
func samplePixels(im *Image, p Params, rowLo, rowHi int) (points []Point, examined int) {
	g := p.Granularity
	if g < 1 {
		g = 1
	}
	for y := rowLo; y < rowHi; y += g {
		for x := 0; x < im.W; x += g {
			examined++
			if interesting(im, x, y, p.InterestThreshold) {
				points = append(points, Point{x, y})
			}
		}
	}
	return points, examined
}

// Region is a region of interest: the convex hull (as a polygon) around a
// cluster of interesting pixels, with its bounding box for fast iteration.
type Region struct {
	Hull       []Point
	MinX, MinY int
	MaxX, MaxY int
	Support    int // number of interesting pixels in the cluster
}

// contains reports whether the pixel lies inside the region's convex hull
// (inclusive of edges).
func (r Region) contains(p Point) bool {
	if p.X < r.MinX || p.X > r.MaxX || p.Y < r.MinY || p.Y > r.MaxY {
		return false
	}
	if len(r.Hull) < 3 {
		return true // degenerate hull: fall back to the bounding box
	}
	sign := 0
	n := len(r.Hull)
	for i := 0; i < n; i++ {
		a, b := r.Hull[i], r.Hull[(i+1)%n]
		cross := (b.X-a.X)*(p.Y-a.Y) - (b.Y-a.Y)*(p.X-a.X)
		switch {
		case cross == 0:
			continue
		case cross > 0:
			if sign < 0 {
				return false
			}
			sign = 1
		default:
			if sign > 0 {
				return false
			}
			sign = -1
		}
	}
	return true
}

// markRegions runs step 2: it clusters the interesting pixels with
// single-linkage at the search distance, keeps clusters with at least
// MinCluster members, and draws each cluster's convex hull grown by
// HullMargin.
func markRegions(im *Image, p Params, points []Point) []Region {
	if p.CornerFilter {
		var kept []Point
		for _, pt := range points {
			if cornerNearby(im, pt, p) {
				kept = append(kept, pt)
			}
		}
		points = kept
	}
	n := len(points)
	if n == 0 {
		return nil
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if points[i].dist(points[j]) <= p.SearchDistance {
				union(i, j)
			}
		}
	}
	clusters := make(map[int][]Point)
	for i, pt := range points {
		r := find(i)
		clusters[r] = append(clusters[r], pt)
	}
	var regions []Region
	for _, members := range clusters {
		if len(members) < p.MinCluster {
			continue
		}
		hull := convexHull(members)
		hull = growHull(hull, p.HullMargin, im.W, im.H)
		reg := Region{Hull: hull, Support: len(members)}
		reg.MinX, reg.MinY = im.W, im.H
		for _, pt := range hull {
			if pt.X < reg.MinX {
				reg.MinX = pt.X
			}
			if pt.Y < reg.MinY {
				reg.MinY = pt.Y
			}
			if pt.X > reg.MaxX {
				reg.MaxX = pt.X
			}
			if pt.Y > reg.MaxY {
				reg.MaxY = pt.Y
			}
		}
		regions = append(regions, reg)
	}
	// Deterministic order for reproducible pipelines.
	sort.Slice(regions, func(a, b int) bool {
		if regions[a].MinY != regions[b].MinY {
			return regions[a].MinY < regions[b].MinY
		}
		return regions[a].MinX < regions[b].MinX
	})
	return regions
}

// cornerNearby reports whether any pixel within the sampling cell of pt
// passes the corner test (the corner response is only a few pixels wide, so
// the refinement scans the cell the sample represents).
func cornerNearby(im *Image, pt Point, p Params) bool {
	r := p.Granularity / 2
	if r < 1 {
		r = 1
	}
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			if cornerLike(im, pt.X+dx, pt.Y+dy, p.CornerThreshold) {
				return true
			}
		}
	}
	return false
}

// convexHull computes the convex hull with Andrew's monotone chain,
// returning vertices in counter-clockwise order.
func convexHull(pts []Point) []Point {
	if len(pts) <= 2 {
		return append([]Point(nil), pts...)
	}
	sorted := append([]Point(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		return sorted[i].Y < sorted[j].Y
	})
	cross := func(o, a, b Point) int {
		return (a.X-o.X)*(b.Y-o.Y) - (a.Y-o.Y)*(b.X-o.X)
	}
	var lower []Point
	for _, p := range sorted {
		for len(lower) >= 2 && cross(lower[len(lower)-2], lower[len(lower)-1], p) <= 0 {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	var upper []Point
	for i := len(sorted) - 1; i >= 0; i-- {
		p := sorted[i]
		for len(upper) >= 2 && cross(upper[len(upper)-2], upper[len(upper)-1], p) <= 0 {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	return append(lower[:len(lower)-1], upper[:len(upper)-1]...)
}

// growHull expands the hull outward from its centroid by margin pixels,
// clamped to the image bounds.
func growHull(hull []Point, margin, w, h int) []Point {
	if margin <= 0 || len(hull) == 0 {
		return hull
	}
	var cx, cy float64
	for _, p := range hull {
		cx += float64(p.X)
		cy += float64(p.Y)
	}
	cx /= float64(len(hull))
	cy /= float64(len(hull))
	out := make([]Point, len(hull))
	for i, p := range hull {
		dx, dy := float64(p.X)-cx, float64(p.Y)-cy
		d := math.Hypot(dx, dy)
		if d == 0 {
			d = 1
		}
		nx := int(math.Round(float64(p.X) + dx/d*float64(margin)))
		ny := int(math.Round(float64(p.Y) + dy/d*float64(margin)))
		if nx < 0 {
			nx = 0
		}
		if ny < 0 {
			ny = 0
		}
		if nx >= w {
			nx = w - 1
		}
		if ny >= h {
			ny = h - 1
		}
		out[i] = Point{nx, ny}
	}
	return out
}

// Junction holds a detected junction and its operator response.
type Junction struct {
	P        Point
	Response float64
}

// detectJunctions runs step 3 on one region: the Harris corner operator
// (structure tensor over a 3x3 window of Sobel gradients) on every pixel of
// the region, followed by local non-maximum suppression.  It returns the
// junctions and the number of pixels examined (the step's work).
func detectJunctions(im *Image, p Params, reg Region) (junctions []Junction, examined int) {
	resp := make(map[Point]float64)
	for y := reg.MinY; y <= reg.MaxY; y++ {
		for x := reg.MinX; x <= reg.MaxX; x++ {
			pt := Point{x, y}
			if !reg.contains(pt) {
				continue
			}
			examined++
			r := harris(im, x, y, p.HarrisK)
			if r > p.HarrisThreshold {
				resp[pt] = r
			}
		}
	}
	// Non-maximum suppression over a 5x5 neighborhood.
	for pt, r := range resp {
		best := true
		for dy := -2; dy <= 2 && best; dy++ {
			for dx := -2; dx <= 2; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				q := Point{pt.X + dx, pt.Y + dy}
				if or, ok := resp[q]; ok && (or > r || (or == r && (q.Y < pt.Y || (q.Y == pt.Y && q.X < pt.X)))) {
					best = false
					break
				}
			}
		}
		if best {
			junctions = append(junctions, Junction{P: pt, Response: r})
		}
	}
	sort.Slice(junctions, func(a, b int) bool {
		if junctions[a].P.Y != junctions[b].P.Y {
			return junctions[a].P.Y < junctions[b].P.Y
		}
		return junctions[a].P.X < junctions[b].P.X
	})
	return junctions, examined
}

// harris computes the Harris corner response at (x, y).
func harris(im *Image, x, y int, k float64) float64 {
	var sxx, syy, sxy float64
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			gx, gy := sobel(im, x+dx, y+dy)
			sxx += gx * gx
			syy += gy * gy
			sxy += gx * gy
		}
	}
	det := sxx*syy - sxy*sxy
	trace := sxx + syy
	return det - k*trace*trace
}

// sobel returns the Sobel gradient at (x, y).
func sobel(im *Image, x, y int) (gx, gy float64) {
	gx = im.at(x+1, y-1) + 2*im.at(x+1, y) + im.at(x+1, y+1) -
		im.at(x-1, y-1) - 2*im.at(x-1, y) - im.at(x-1, y+1)
	gy = im.at(x-1, y+1) + 2*im.at(x, y+1) + im.at(x+1, y+1) -
		im.at(x-1, y-1) - 2*im.at(x, y-1) - im.at(x+1, y-1)
	return gx / 4, gy / 4
}
