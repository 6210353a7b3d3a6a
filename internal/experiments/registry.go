package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
)

// runs is the experiment registry: every run name the CLI's -run flag
// and the daemon's experiment jobs accept, in listing order, with the
// blocks it prints. Each block is followed by a blank line, except the
// input-sensitivity study that closes "ext".
var runs = []struct {
	name   string
	blocks []block
}{
	{"all", []block{fig3Block, fig4Block, fig5Block, fig6and7Block, table3Block, fig8and9Block, ablationBlock}},
	{"fig3", []block{fig3Block}},
	{"fig4", []block{fig4Block}},
	{"fig5", []block{fig5Block}},
	{"fig6", []block{fig6and7Block}},
	{"fig7", []block{fig6and7Block}},
	{"fig6and7", []block{fig6and7Block}},
	{"table3", []block{table3Block}},
	{"fig8", []block{fig8and9Block}},
	{"fig9", []block{fig8and9Block}},
	{"ablation", []block{ablationBlock}},
	{"predsweep", []block{predsweepBlock}},
	{"l2sweep", []block{l2sweepBlock}},
	{"prefetch", []block{prefetchBlock}},
	{"statsim", []block{statsimBlock}},
	{"inputs", []block{inputsBlock}},
	{"ext", []block{predsweepBlock, l2sweepBlock, prefetchBlock, statsimBlock, inputsBlock}},
}

// RunNames lists every run name Run accepts, in registry order.
func RunNames() []string {
	names := make([]string, len(runs))
	for i, r := range runs {
		names[i] = r.name
	}
	return names
}

// CheckRun returns nil if Run accepts name, and otherwise an error that
// lists every name it does accept.
func CheckRun(name string) error {
	_, err := lookupRun(name)
	return err
}

func lookupRun(name string) ([]block, error) {
	for _, r := range runs {
		if r.name == name {
			return r.blocks, nil
		}
	}
	return nil, fmt.Errorf("unknown run %q (want %s)", name, strings.Join(RunNames(), "|"))
}

// Run prepares the workload pairs and computes and prints the named
// experiment to w: the bytes `experiments -run name` writes to stdout.
// An unknown name fails before any work starts.
func Run(ctx context.Context, name string, opts Options, w io.Writer) error {
	if err := CheckRun(name); err != nil {
		return err
	}
	pairs, err := PrepareContext(ctx, opts)
	if err != nil {
		return err
	}
	return render(ctx, name, pairs, opts, w)
}

// render prints the named run over already-prepared pairs.
func render(ctx context.Context, name string, pairs []*Pair, opts Options, w io.Writer) error {
	blocks, err := lookupRun(name)
	if err != nil {
		return err
	}
	r := &report{ctx: ctx, pairs: pairs, opts: opts, w: w}
	for _, b := range blocks {
		if err := b(r); err != nil {
			return err
		}
	}
	return nil
}

// report is one run in progress. It keeps the results two blocks share,
// so each is computed once per run: Fig. 5 ranks Fig. 4's rows, and
// Figs. 8/9 select from Table 3's.
type report struct {
	ctx   context.Context
	pairs []*Pair
	opts  Options
	w     io.Writer

	fig4      []Fig4Row
	table3    []DesignRow
	table3Sum []Table3Summary
}

func (r *report) fig4Rows() ([]Fig4Row, error) {
	if r.fig4 == nil {
		rows, err := Fig4Context(r.ctx, r.pairs, r.opts)
		if err != nil {
			return nil, err
		}
		r.fig4 = rows
	}
	return r.fig4, nil
}

func (r *report) table3Rows() ([]DesignRow, []Table3Summary, error) {
	if r.table3Sum == nil {
		rows, sums, err := Table3Context(r.ctx, r.pairs, r.opts)
		if err != nil {
			return nil, nil, err
		}
		r.table3, r.table3Sum = rows, sums
	}
	return r.table3, r.table3Sum, nil
}

// block prints one table of a run.
type block func(r *report) error

// rowsBlock is the block of an experiment stage that computes its rows
// from the pairs and prints them as they come.
func rowsBlock[R any](compute func(context.Context, []*Pair, Options) ([]R, error), print func(io.Writer, []R)) block {
	return func(r *report) error {
		rows, err := compute(r.ctx, r.pairs, r.opts)
		if err != nil {
			return err
		}
		print(r.w, rows)
		fmt.Fprintln(r.w)
		return nil
	}
}

var (
	fig6and7Block  = rowsBlock(Fig6and7Context, PrintFig6and7)
	ablationBlock  = rowsBlock(AblationContext, PrintAblation)
	predsweepBlock = rowsBlock(PredictorSweepContext, PrintPredictorSweep)
	l2sweepBlock   = rowsBlock(L2SweepContext, PrintL2Sweep)
	prefetchBlock  = rowsBlock(PrefetchStudyContext, PrintPrefetchStudy)
	statsimBlock   = rowsBlock(StatsimComparisonContext, PrintStatsimComparison)
)

func fig3Block(r *report) error {
	PrintFig3(r.w, Fig3(r.pairs))
	fmt.Fprintln(r.w)
	return nil
}

func fig4Block(r *report) error {
	rows, err := r.fig4Rows()
	if err != nil {
		return err
	}
	PrintFig4(r.w, rows)
	fmt.Fprintln(r.w)
	return nil
}

func fig5Block(r *report) error {
	rows, err := r.fig4Rows()
	if err != nil {
		return err
	}
	pts, err := Fig5(rows)
	if err != nil {
		return err
	}
	PrintFig5(r.w, pts)
	fmt.Fprintln(r.w)
	return nil
}

func table3Block(r *report) error {
	_, sums, err := r.table3Rows()
	if err != nil {
		return err
	}
	PrintTable3(r.w, sums)
	fmt.Fprintln(r.w)
	return nil
}

func fig8and9Block(r *report) error {
	rows, _, err := r.table3Rows()
	if err != nil {
		return err
	}
	PrintFig8and9(r.w, Fig8and9Rows(rows))
	fmt.Fprintln(r.w)
	return nil
}

// inputsBlock studies input sensitivity on fresh inputs rather than the
// prepared pairs. It prints no trailing blank line.
func inputsBlock(r *report) error {
	rows, err := InputSensitivityContext(r.ctx, r.opts)
	if err != nil {
		return err
	}
	PrintInputSensitivity(r.w, rows)
	return nil
}
