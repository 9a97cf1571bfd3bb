// Package textplot draws small ASCII scatter plots — enough to render
// Figure 3 (the impossibility domain and the SBO tradeoff curve) in a
// terminal, as the FIG3 experiment in internal/exp prints it.
package textplot

import (
	"fmt"
	"io"
	"math"
)

// Series is one set of points drawn with a single marker rune.
type Series struct {
	Name   string
	Marker rune
	X, Y   []float64
}

// Plot is a fixed-size character canvas with linear axes.
type Plot struct {
	Width, Height          int
	XMin, XMax, YMin, YMax float64
	series                 []Series
}

// New creates a plot with the given canvas size and axis ranges.
func New(width, height int, xMin, xMax, yMin, yMax float64) *Plot {
	if width < 10 || height < 5 {
		panic(fmt.Sprintf("textplot: canvas %dx%d too small", width, height))
	}
	if xMax <= xMin || yMax <= yMin {
		panic(fmt.Sprintf("textplot: bad ranges [%g,%g]x[%g,%g]", xMin, xMax, yMin, yMax))
	}
	return &Plot{Width: width, Height: height, XMin: xMin, XMax: xMax, YMin: yMin, YMax: yMax}
}

// Add registers a series. Points outside the ranges are clipped.
func (p *Plot) Add(s Series) {
	if len(s.X) != len(s.Y) {
		panic(fmt.Sprintf("textplot: series %q has %d x and %d y", s.Name, len(s.X), len(s.Y)))
	}
	p.series = append(p.series, s)
}

// Render writes the canvas, axes and legend to w.
func (p *Plot) Render(w io.Writer) error {
	grid := make([][]rune, p.Height)
	for r := range grid {
		grid[r] = make([]rune, p.Width)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	for _, s := range p.series {
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if math.IsNaN(x) || math.IsNaN(y) || x < p.XMin || x > p.XMax || y < p.YMin || y > p.YMax {
				continue
			}
			c := int((x - p.XMin) / (p.XMax - p.XMin) * float64(p.Width-1))
			r := p.Height - 1 - int((y-p.YMin)/(p.YMax-p.YMin)*float64(p.Height-1))
			grid[r][c] = s.Marker
		}
	}
	for r := 0; r < p.Height; r++ {
		yVal := p.YMax - (p.YMax-p.YMin)*float64(r)/float64(p.Height-1)
		label := "      "
		if r == 0 || r == p.Height-1 || r == p.Height/2 {
			label = fmt.Sprintf("%5.2f ", yVal)
		}
		if _, err := fmt.Fprintf(w, "%s|%s\n", label, string(grid[r])); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "      +%s\n", repeat('-', p.Width)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "      %-*.2f%*.2f\n", p.Width/2, p.XMin, p.Width-p.Width/2, p.XMax); err != nil {
		return err
	}
	for _, s := range p.series {
		if _, err := fmt.Fprintf(w, "      %c = %s\n", s.Marker, s.Name); err != nil {
			return err
		}
	}
	return nil
}

func repeat(r rune, n int) string {
	out := make([]rune, n)
	for i := range out {
		out[i] = r
	}
	return string(out)
}
