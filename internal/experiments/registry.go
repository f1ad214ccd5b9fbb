package experiments

import (
	"context"
	"fmt"
	"io"
)

// Experiment is one runnable table or figure of the paper's evaluation.
// Run regenerates the experiment at the given scale and renders its
// markdown to w. Implementations draw all randomness from opt.Seed before
// fanning missions out to the executor, so output is byte-identical
// at any opt.Workers setting.
type Experiment interface {
	Name() string
	Run(ctx context.Context, w io.Writer, opt Options) error
}

// expFunc adapts a function to the Experiment interface.
type expFunc struct {
	name string
	run  func(ctx context.Context, w io.Writer, opt Options) error
}

func (e expFunc) Name() string { return e.name }

func (e expFunc) Run(ctx context.Context, w io.Writer, opt Options) error {
	// Attribute all telemetry the experiment's sweeps produce to its
	// report group.
	opt.Collector.Begin(e.name)
	if err := e.run(ctx, w, opt); err != nil {
		return fmt.Errorf("%s: %w", e.name, err)
	}
	return nil
}

// All returns every registered experiment in report order — the order
// `-exp all` renders and EXPERIMENTS_DATA.md records.
func All() []Experiment {
	return []Experiment{
		expFunc{"table3", runTable3},
		expFunc{"table4", func(ctx context.Context, w io.Writer, opt Options) error {
			r, err := Table4(ctx, opt)
			if err != nil {
				return err
			}
			return WriteTable4(w, r)
		}},
		expFunc{"table5", func(ctx context.Context, w io.Writer, opt Options) error {
			r, err := Table5(ctx, opt)
			if err != nil {
				return err
			}
			return WriteTable5(w, r)
		}},
		expFunc{"table6", func(ctx context.Context, w io.Writer, opt Options) error {
			r, err := Table6(ctx, opt)
			if err != nil {
				return err
			}
			return WriteTable6(w, r)
		}},
		expFunc{"table7", func(ctx context.Context, w io.Writer, opt Options) error {
			r, err := Table7(ctx, opt)
			if err != nil {
				return err
			}
			return WriteTable7(w, r)
		}},
		expFunc{"fig2", func(ctx context.Context, w io.Writer, opt Options) error {
			r, err := Fig2(ctx, opt)
			if err != nil {
				return err
			}
			return WriteTrace(w, "Fig. 2", r)
		}},
		expFunc{"fig8b", runFig8b},
		expFunc{"fig9", func(ctx context.Context, w io.Writer, opt Options) error {
			r, err := Fig9(ctx, opt)
			if err != nil {
				return err
			}
			return WriteTrace(w, "Fig. 9", r)
		}},
		expFunc{"fig10", func(ctx context.Context, w io.Writer, opt Options) error {
			rs, err := Fig10(ctx, opt)
			if err != nil {
				return err
			}
			return WriteFig10(w, rs)
		}},
	}
}

// aliases maps alternate experiment names to their canonical entry
// (fig8a is rendered as part of the table3 calibration block).
var aliases = map[string]string{
	"fig8a": "table3",
}

// Get returns the named experiment, resolving aliases.
func Get(name string) (Experiment, bool) {
	if canonical, ok := aliases[name]; ok {
		name = canonical
	}
	for _, e := range All() {
		if e.Name() == name {
			return e, true
		}
	}
	return nil, false
}

// Names returns the canonical experiment names in report order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.Name()
	}
	return out
}
