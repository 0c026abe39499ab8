package experiments

import "fmt"

// Runner executes experiments by id and caches cross-experiment results
// (fig16 feeds fig17/fig18; fig21 feeds fig22). It is the shared dispatch
// used by cmd/assasin-bench and cmd/assasin-serve; it is not goroutine-safe
// — drive it from one goroutine.
type Runner struct {
	fig16Cache []Fig16Point
	fig21Cache []Fig13Row
}

func (rn *Runner) fig16Points(cfg Config) ([]Fig16Point, error) {
	if rn.fig16Cache != nil {
		return rn.fig16Cache, nil
	}
	p, err := Fig16(cfg)
	if err == nil {
		rn.fig16Cache = p
	}
	return p, err
}

func (rn *Runner) fig21Rows(cfg Config) ([]Fig13Row, error) {
	if rn.fig21Cache != nil {
		return rn.fig21Cache, nil
	}
	r, err := Fig21(cfg)
	if err == nil {
		rn.fig21Cache = r
	}
	return r, err
}

func (rn *Runner) fig22Rows(cfg Config) ([]Fig22Row, error) {
	rows, err := rn.fig21Rows(cfg)
	if err != nil {
		return nil, err
	}
	return Fig22(SpeedupSummary(rows), cfg.Cores), nil
}

// runFunc runs one experiment and returns its structured rows (for JSON
// output) and rendered text.
type runFunc func(rn *Runner, cfg Config) (any, string, error)

// experimentTable lists every experiment in the order `-exp all` runs
// them; ExperimentIDs, ValidateNames and Runner.Run all read it.
var experimentTable = []struct {
	id  string
	run runFunc
}{
	{"table2", show(plain(Table2), FormatTable2)},
	{"table4", func(_ *Runner, cfg Config) (any, string, error) { t := Table4(cfg); return t, t, nil }},
	{"fig5", show(plain(Fig5), FormatFig5)},
	{"fig13", show(plain(Fig13), titled("Fig 13", FormatFig13))},
	{"fig14", show(plain(Fig14), titled("Fig 14", FormatFig14))},
	{"fig15", show(plain(Fig15), FormatFig15)},
	{"fig16", show((*Runner).fig16Points, FormatFig16)},
	{"fig17", show((*Runner).fig16Points, FormatFig17)},
	{"fig18", show((*Runner).fig16Points, FormatFig18)},
	{"fig19", show(plain(Fig19), FormatFig19)},
	{"fig20", func(*Runner, Config) (any, string, error) { r := Fig20(); return r, FormatFig20(r), nil }},
	{"fig21", show((*Runner).fig21Rows, titled("Fig 21 (timing-adjusted)", FormatFig13))},
	{"table5", func(_ *Runner, cfg Config) (any, string, error) { t := FormatTable5(cfg.Cores); return t, t, nil }},
	{"fig22", show((*Runner).fig22Rows, FormatFig22)},
	{"ablation", runAblation},
	{"load", show(plain(loadExperiment), FormatLoad)},
}

// show makes a runFunc from an experiment's producer and its formatter.
func show[T any](produce func(*Runner, Config) (T, error), format func(T) string) runFunc {
	return func(rn *Runner, cfg Config) (any, string, error) {
		rows, err := produce(rn, cfg)
		if err != nil {
			return nil, "", err
		}
		return rows, format(rows), nil
	}
}

// plain adapts an experiment that needs no Runner cache to show.
func plain[T any](f func(Config) (T, error)) func(*Runner, Config) (T, error) {
	return func(_ *Runner, cfg Config) (T, error) { return f(cfg) }
}

// titled binds a shared formatter's title.
func titled[T any](title string, format func(string, T) string) func(T) string {
	return func(rows T) string { return format(title, rows) }
}

func runAblation(_ *Runner, cfg Config) (any, string, error) {
	wrows, err := AblationWindow(cfg)
	if err != nil {
		return nil, "", err
	}
	drows, err := AblationDRAM(cfg)
	if err != nil {
		return nil, "", err
	}
	m, err := MixedIO(cfg)
	if err != nil {
		return nil, "", err
	}
	rows := struct {
		Window []AblationWindowRow `json:"window"`
		DRAM   []AblationDRAMRow   `json:"dram"`
		Mixed  *MixedIOResult      `json:"mixed_io"`
	}{wrows, drows, m}
	text := FormatAblationWindow(wrows) +
		FormatAblationDRAM(drows) +
		FormatMixedIO(m)
	return rows, text, nil
}

func loadExperiment(cfg Config) (*LoadResult, error) {
	lc := DefaultLoad()
	if cfg.Load != nil {
		lc = *cfg.Load
	}
	return RunLoad(cfg, lc)
}

// ExperimentIDs lists the assasin-bench experiment names in the order
// `-exp all` runs them.
func ExperimentIDs() []string {
	ids := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		ids[i] = e.id
	}
	return ids
}

// Run executes one experiment and returns its structured rows (for JSON
// output) and rendered text.
func (rn *Runner) Run(name string, cfg Config) (any, string, error) {
	for _, e := range experimentTable {
		if e.id == name {
			return e.run(rn, cfg)
		}
	}
	return nil, "", fmt.Errorf("unknown experiment %q", name)
}
