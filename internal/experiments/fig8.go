package experiments

import (
	"context"
	"fmt"

	"mtreescale/internal/plot"
	"mtreescale/internal/reach"
)

func init() {
	mustRegister(&Runner{
		ID:          "fig8",
		Title:       "Figure 8: L̄(n)/(n·D) for exponential vs non-exponential S(r)",
		Description: "Equation 23 under three synthetic reachability functions normalized to equal S(D): exponential 2^r, power law r^λ, and super-exponential e^{λr²}; shows the asymptotic form is exponential-specific.",
		Run:         runFig8,
	})
}

// Figure 8 parameters: the paper uses S(r) = 2^r as the exponential case and
// unspecified λ; depth is chosen so n can range to 1e10 meaningfully.
const (
	fig8Depth  = 20
	fig8Lambda = 3.0
	fig8MaxN   = 1e10
)

func runFig8(ctx context.Context, p Profile) (*Result, error) {
	exp, pow, gau, err := reach.Figure8Models(2, fig8Lambda, fig8Depth)
	if err != nil {
		return nil, err
	}
	fig := &plot.Figure{
		ID:     "fig8",
		Title:  "Normalized tree size under different reachability growth",
		XLabel: "n",
		YLabel: "L̄(n)/(n·D)",
		XLog:   true,
	}
	res := &Result{ID: "fig8", Title: fig.Title, Figure: fig}
	models := []struct {
		name string
		r    *reach.Reachability
	}{
		{"S(r)=2^r", exp},
		{fmt.Sprintf("S(r)∝r^%.0f", fig8Lambda), pow},
		{"S(r)∝e^{λr²}", gau},
	}
	for _, m := range models {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var xs, ys []float64
		for _, n := range xGrid(1, fig8MaxN, p.GridPoints*3) {
			l, err := m.r.ExpectedTreeLeaves(n)
			if err != nil {
				return nil, err
			}
			xs = append(xs, n)
			ys = append(ys, l/(n*float64(fig8Depth)))
		}
		if err := fig.AddXY(m.name, xs, ys); err != nil {
			return nil, err
		}
		cls, err := m.r.Classify(1.0)
		if err != nil {
			return nil, err
		}
		// Half-saturation crossover: n at which the normalized curve first
		// drops below half its n=1 value — the "shape" diagnostic that
		// separates the three models in the paper's figure.
		half := ys[0] / 2
		crossover := xs[len(xs)-1]
		for i := range ys {
			if ys[i] < half {
				crossover = xs[i]
				break
			}
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: growth=%s, half-normalization crossover at n≈%.3g", m.name, cls, crossover))
	}
	return res, nil
}
