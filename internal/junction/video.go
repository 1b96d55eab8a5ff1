package junction

import (
	"fmt"
	"math/rand"
)

// VideoSpec parameterizes a synthetic video: rectangles drift with constant
// velocities and bounce off the frame margins, so every frame has analytic
// ground-truth junctions — the paper's "live video feed" scenario with a
// measurable answer key.
type VideoSpec struct {
	W, H       int
	Frames     int
	Rectangles int
	Noise      float64
	// MaxSpeed bounds the per-frame drift in pixels.
	MaxSpeed int
	Seed     int64
}

// DefaultVideoSpec returns a 12-frame 192x192 scene.
func DefaultVideoSpec() VideoSpec {
	return VideoSpec{W: 256, H: 256, Frames: 12, Rectangles: 6, Noise: 0.02, MaxSpeed: 4, Seed: 2}
}

// validate checks the spec.
func (v VideoSpec) validate() error {
	if v.W < 32 || v.H < 32 {
		return fmt.Errorf("junction: video %dx%d too small", v.W, v.H)
	}
	if v.Frames < 1 || v.Rectangles < 1 {
		return fmt.Errorf("junction: video needs frames and rectangles")
	}
	if v.MaxSpeed < 0 {
		return fmt.Errorf("junction: negative speed")
	}
	return nil
}

// SynthesizeVideo renders the sequence, returning per-frame images and
// ground truths.
func SynthesizeVideo(spec VideoSpec) ([]*Image, [][]Point, error) {
	if err := spec.validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	margin := 8
	type body struct {
		x, y, w, h int
		vx, vy     int
		v          float64
	}
	var bodies []body
	for i := 0; i < spec.Rectangles; i++ {
		w := margin*2 + rng.Intn(spec.W/3)
		h := margin*2 + rng.Intn(spec.H/3)
		v := 0.05 + rng.Float64()*0.2
		if i%2 == 1 {
			v = 0.75 + rng.Float64()*0.2
		}
		bodies = append(bodies, body{
			x: margin + rng.Intn(spec.W-w-2*margin),
			y: margin + rng.Intn(spec.H-h-2*margin),
			w: w, h: h,
			vx: rng.Intn(2*spec.MaxSpeed+1) - spec.MaxSpeed,
			vy: rng.Intn(2*spec.MaxSpeed+1) - spec.MaxSpeed,
			v:  v,
		})
	}

	var frames []*Image
	var truths [][]Point
	for f := 0; f < spec.Frames; f++ {
		im := newImage(spec.W, spec.H)
		for i := range im.Pix {
			im.Pix[i] = 0.5
		}
		for _, b := range bodies {
			for y := b.y; y < b.y+b.h; y++ {
				for x := b.x; x < b.x+b.w; x++ {
					im.set(x, y, b.v)
				}
			}
		}
		var truth []Point
		covered := func(p Point, after int) bool {
			for j := after + 1; j < len(bodies); j++ {
				b := bodies[j]
				if p.X >= b.x-1 && p.X <= b.x+b.w && p.Y >= b.y-1 && p.Y <= b.y+b.h {
					return true
				}
			}
			return false
		}
		for i, b := range bodies {
			for _, c := range []Point{
				{b.x, b.y}, {b.x + b.w - 1, b.y}, {b.x, b.y + b.h - 1}, {b.x + b.w - 1, b.y + b.h - 1},
			} {
				if !covered(c, i) {
					truth = append(truth, c)
				}
			}
		}
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
		frames = append(frames, im)
		truths = append(truths, truth)

		// Advance bodies, bouncing at the margins.
		for i := range bodies {
			b := &bodies[i]
			b.x += b.vx
			b.y += b.vy
			if b.x < margin || b.x+b.w > spec.W-margin {
				b.vx = -b.vx
				b.x += 2 * b.vx
			}
			if b.y < margin || b.y+b.h > spec.H-margin {
				b.vy = -b.vy
				b.y += 2 * b.vy
			}
		}
	}
	return frames, truths, nil
}
