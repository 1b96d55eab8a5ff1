// Package junction implements the paper's tunable example application
// (Sections 3.2 and 4.3): junction detection in images.  The algorithm has
// three steps — sample pixels for interest, mark regions of interest around
// clusters of interesting pixels, and run a compute-intensive junction
// operator on every pixel inside the regions — and is tunable through the
// sampling granularity and the search distance: coarser sampling makes the
// first step cheaper at the cost of larger regions (more third-step work)
// for comparable output quality.
//
// The paper runs on live imagery; this package substitutes a synthetic
// image generator with analytic ground truth (planted rectangle corners),
// so output quality is measurable exactly.
package junction

import (
	"fmt"
	"math"
	"math/rand"
)

// Image is a grayscale image with intensities in [0, 1], row-major.
type Image struct {
	W, H int
	Pix  []float64
}

// newImage returns a black image.
func newImage(w, h int) *Image {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("junction: bad image size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]float64, w*h)}
}

// at returns the intensity at (x, y), clamping coordinates to the border.
func (im *Image) at(x, y int) float64 {
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	if x >= im.W {
		x = im.W - 1
	}
	if y >= im.H {
		y = im.H - 1
	}
	return im.Pix[y*im.W+x]
}

// set writes the intensity at (x, y); out-of-bounds writes are dropped.
func (im *Image) set(x, y int, v float64) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = v
}

// Point is a pixel coordinate.
type Point struct{ X, Y int }

// dist returns the Euclidean distance between two points.
func (p Point) dist(q Point) float64 {
	dx, dy := float64(p.X-q.X), float64(p.Y-q.Y)
	return math.Sqrt(dx*dx + dy*dy)
}

// SynthSpec parameterizes the synthetic scene.
type SynthSpec struct {
	W, H       int
	Rectangles int     // number of planted rectangles
	Noise      float64 // uniform noise amplitude
	Seed       int64
}

// DefaultSynthSpec plants a busy 256x256 scene.
func DefaultSynthSpec() SynthSpec {
	return SynthSpec{W: 256, H: 256, Rectangles: 6, Noise: 0.02, Seed: 1}
}

// Synthesize generates an image of filled rectangles over a mid-gray
// background plus noise, returning the image and the ground-truth junction
// locations (the visible rectangle corners).
func Synthesize(spec SynthSpec) (*Image, []Point) {
	rng := rand.New(rand.NewSource(spec.Seed))
	im := newImage(spec.W, spec.H)
	for i := range im.Pix {
		im.Pix[i] = 0.5
	}
	// Top-most rectangle at each pixel determines intensity, so corners of
	// later rectangles are always visible; earlier corners may be occluded.
	type rect struct {
		x0, y0, x1, y1 int
		v              float64
	}
	var rects []rect
	margin := 8
	for i := 0; i < spec.Rectangles; i++ {
		w := margin*2 + rng.Intn(spec.W/3)
		h := margin*2 + rng.Intn(spec.H/3)
		x0 := margin + rng.Intn(spec.W-w-2*margin)
		y0 := margin + rng.Intn(spec.H-h-2*margin)
		v := 0.0
		// Alternate dark and bright so adjacent rectangles keep contrast
		// against the 0.5 background.
		if i%2 == 0 {
			v = 0.05 + rng.Float64()*0.2
		} else {
			v = 0.75 + rng.Float64()*0.2
		}
		rects = append(rects, rect{x0, y0, x0 + w, y0 + h, v})
	}
	for _, r := range rects {
		for y := r.y0; y < r.y1; y++ {
			for x := r.x0; x < r.x1; x++ {
				im.set(x, y, r.v)
			}
		}
	}
	// Ground truth: corners still on top (not covered by a later rect).
	var truth []Point
	covered := func(p Point, after int) bool {
		for j := after + 1; j < len(rects); j++ {
			r := rects[j]
			if p.X >= r.x0-1 && p.X <= r.x1 && p.Y >= r.y0-1 && p.Y <= r.y1 {
				return true
			}
		}
		return false
	}
	for i, r := range rects {
		for _, c := range []Point{{r.x0, r.y0}, {r.x1 - 1, r.y0}, {r.x0, r.y1 - 1}, {r.x1 - 1, r.y1 - 1}} {
			if !covered(c, i) {
				truth = append(truth, c)
			}
		}
	}
	// Noise.
	if spec.Noise > 0 {
		for i := range im.Pix {
			im.Pix[i] += (rng.Float64()*2 - 1) * spec.Noise
			if im.Pix[i] < 0 {
				im.Pix[i] = 0
			}
			if im.Pix[i] > 1 {
				im.Pix[i] = 1
			}
		}
	}
	return im, truth
}
