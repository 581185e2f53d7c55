package corpus

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/engine"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/resultcache"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
	"github.com/lumina-sim/lumina/internal/version"
)

// Status classifies one (entry, profile) replay cell.
type Status int

const (
	// Pass: verdicts and summary digest match the recorded goldens.
	Pass Status = iota
	// VerdictDrift: at least one analyzer verdict flipped — the
	// behaviour the entry guards regressed (or was fixed; either way the
	// golden must be consciously re-recorded).
	VerdictDrift
	// DigestDrift: verdicts match but the summary.json digest does not —
	// quantitative behaviour (latencies, chain structure, counts)
	// changed, or the entry's files were tampered with.
	DigestDrift
	// Error: the entry could not be replayed at all (unreadable files,
	// failing run, no golden for the profile).
	Error
)

func (s Status) String() string {
	switch s {
	case Pass:
		return "pass"
	case VerdictDrift:
		return "verdict-drift"
	case DigestDrift:
		return "digest-drift"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Cell is one (entry, profile) conformance result.
type Cell struct {
	EntryID string `json:"entry"`
	Profile string `json:"profile"`
	Status  Status `json:"-"`
	// StatusName is Status rendered for JSON consumers.
	StatusName string `json:"status"`
	Detail     string `json:"detail,omitempty"`
}

// Row is one entry's replay across every profile.
type Row struct {
	EntryID string `json:"entry"`
	Name    string `json:"name"`
	Cells   []Cell `json:"cells"` // one per Matrix.Profiles, same order
}

// Matrix is the (entry × profile) conformance matrix Replay produces.
// Rows are sorted by entry ID and cells follow the requested profile
// order, so the rendered matrix is byte-identical at any worker count.
type Matrix struct {
	Profiles []string `json:"profiles"`
	Rows     []Row    `json:"rows"`

	// Coverage maps NIC profile → the behavioral coverage merged across
	// every replayed entry (the corpus frontier for that profile); nil
	// unless ReplayOptions.Coverage was set. Merging sums pair counts,
	// which is order-independent, so the frontier is byte-identical at
	// any worker count.
	Coverage map[string]*coverage.Report `json:"coverage,omitempty"`
}

// OK reports whether every cell passed.
func (m *Matrix) OK() bool { return m.Drift() == 0 }

// Drift counts non-pass cells.
func (m *Matrix) Drift() int {
	n := 0
	for _, r := range m.Rows {
		for _, c := range r.Cells {
			if c.Status != Pass {
				n++
			}
		}
	}
	return n
}

// Render writes the matrix as a fixed-width table, one row per entry,
// one column per profile, followed by a drift summary and the detail of
// every non-pass cell.
func (m *Matrix) Render(w io.Writer) error {
	nameW, colW := len("entry"), 4
	for _, r := range m.Rows {
		if n := len(r.EntryID) + 2 + len(r.Name); n > nameW {
			nameW = n
		}
		for _, c := range r.Cells {
			if len(c.Status.String()) > colW {
				colW = len(c.Status.String())
			}
		}
	}
	for _, p := range m.Profiles {
		if len(p) > colW {
			colW = len(p)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s", nameW, "entry")
	for _, p := range m.Profiles {
		fmt.Fprintf(&b, "  %-*s", colW, p)
	}
	b.WriteByte('\n')
	for _, r := range m.Rows {
		fmt.Fprintf(&b, "%-*s", nameW, r.EntryID+"  "+r.Name)
		for _, c := range r.Cells {
			fmt.Fprintf(&b, "  %-*s", colW, c.Status.String())
		}
		b.WriteByte('\n')
	}
	total := len(m.Rows) * len(m.Profiles)
	fmt.Fprintf(&b, "%d cell(s): %d pass, %d drift\n", total, total-m.Drift(), m.Drift())
	for _, r := range m.Rows {
		for _, c := range r.Cells {
			if c.Status != Pass {
				fmt.Fprintf(&b, "  %s [%s] %s: %s\n", c.EntryID, c.Profile, c.Status, c.Detail)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ReplayOptions tune a corpus replay.
type ReplayOptions struct {
	// Profiles are the matrix columns (default: every built-in model,
	// sorted).
	Profiles []string
	// Transports, when non-empty, restricts the matrix rows to entries
	// whose effective transport set (config.Traffic.Transports) contains
	// at least one of the named transports — the -transport axis of the
	// CI transport matrix. Empty replays every entry.
	Transports []string
	// Workers is the engine pool size (0 = one per CPU, 1 = serial).
	// The matrix is byte-identical for every value.
	Workers int
	// Hub, when non-nil, receives one corpus.replay probe per cell in
	// row-major order.
	Hub *telemetry.Hub
	// INT enables in-band telemetry on every replayed cell. INT is
	// observe-only, so cells still judge against the INT-agnostic
	// goldens — an INT-enabled replay that drifts has caught the INT
	// machinery perturbing the simulation.
	INT bool
	// Coverage enables behavioral coverage on every replayed cell and
	// aggregates the per-profile frontier into Matrix.Coverage. Like
	// INT it is observe-only: cells still judge against the
	// coverage-agnostic goldens, so a coverage-enabled replay that
	// drifts has caught the coverage machinery perturbing the
	// simulation.
	Coverage bool
	// ArtifactsDir, when non-empty, writes each runnable cell's
	// summary.json (and, with INT, int.json; with Coverage,
	// coverage.json) under ArtifactsDir/<entry>/<profile>/ — the raw
	// material for diffing two replays (e.g. different worker counts)
	// byte-for-byte in CI.
	ArtifactsDir string
	// Shards caps how many node loops of a fabric-topology cell run
	// concurrently (orchestrator.Options.Shards); pair-testbed cells are
	// one node and ignore it. It is artifact-preserving, so cells still
	// judge against the goldens recorded at shards=1 — a replay that
	// drifts has caught concurrent node loops perturbing the simulation.
	Shards int
	// Cache, when non-nil, is consulted before simulating each cell and
	// populated after: a cell whose (entry, profile, options, code
	// version) tuple is cached is judged — and its artifacts dumped —
	// from the stored bytes without running anything, so a warm replay
	// of an unchanged corpus on an unchanged build executes zero
	// simulations. Cache writes are best-effort; a full disk never
	// fails a replay.
	Cache *resultcache.Cache
}

// Replay re-runs every corpus entry under every requested profile and
// reports the conformance matrix. Per-entry problems (tampered or
// unreadable files, failing runs, missing goldens) become error or
// drift cells, never panics, so one rotten entry cannot hide the rest
// of the matrix.
func Replay(ctx context.Context, dir string, opts ReplayOptions) (*Matrix, error) {
	if len(opts.Profiles) == 0 {
		opts.Profiles = AllProfiles()
	}
	ids, err := entryIDs(dir)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("corpus: no entries under %s", dir)
	}
	if len(opts.Transports) > 0 {
		ids, err = filterByTransport(dir, ids, opts.Transports)
		if err != nil {
			return nil, err
		}
	}
	m := &Matrix{Profiles: opts.Profiles}

	// Load and integrity-check every entry first. A scenario whose
	// recomputed content address no longer matches its directory name
	// was modified on disk: report digest drift without running it.
	type rowState struct {
		entry *Entry
		skip  Status // Pass = replay normally
		why   string
	}
	states := make([]rowState, len(ids))
	for i, id := range ids {
		e, err := loadEntry(entryDir(dir, id))
		if err != nil {
			states[i] = rowState{skip: Error, why: err.Error()}
			continue
		}
		got, err := ID(e.Config)
		if err != nil {
			states[i] = rowState{entry: e, skip: Error, why: err.Error()}
			continue
		}
		if got != id {
			states[i] = rowState{entry: e, skip: DigestDrift,
				why: fmt.Sprintf("scenario.yaml content hash %s does not match entry id %s (file modified?)", got, id)}
			continue
		}
		states[i] = rowState{entry: e}
	}

	// Fan every runnable (entry, profile) cell out over the engine in
	// row-major submission order. Cells whose cache key hits are judged
	// from the stored bytes and never become jobs: the entry ID is the
	// scenario content hash (verified above), so the key names exactly
	// the run the cell would perform.
	type cellRef struct{ row, col int }
	var jobs []engine.Job
	var refs []cellRef
	var keys []resultcache.Key
	cells := make(map[cellRef]Cell)
	if opts.Coverage {
		m.Coverage = map[string]*coverage.Report{}
	}
	stamp := version.Stamp()
	for i, st := range states {
		if st.skip != Pass {
			continue
		}
		e := st.entry
		for j, p := range opts.Profiles {
			deadline := sim.Duration(e.Expected.DeadlineNs)
			if deadline <= 0 {
				deadline = orchestrator.DefaultOptions().Deadline
			}
			cellOpts := orchestrator.Options{Deadline: deadline, Lineage: true, INT: opts.INT, Coverage: opts.Coverage, Shards: opts.Shards}
			ref := cellRef{i, j}
			var key resultcache.Key
			if opts.Cache != nil {
				key = resultcache.Key{Scenario: e.ID, Profile: p, Options: cellOpts.Fingerprint(), Version: stamp}
				if arts, ok := opts.Cache.Get(key); ok {
					if c, usable := replayFromCache(e, p, opts, m, arts); usable {
						cells[ref] = c
						continue
					}
				}
			}
			jobs = append(jobs, engine.Job{
				Label: fmt.Sprintf("%s@%s", e.ID, p),
				Cfg:   withProfile(e.Config, p),
				Opts:  cellOpts,
			})
			refs = append(refs, ref)
			keys = append(keys, key)
		}
	}
	results := engine.Run(ctx, jobs, engine.Options{Workers: opts.Workers})

	// Assemble rows in ID order, consuming results by submission index.
	for k := range results {
		ref := refs[k]
		c := judge(states[ref.row].entry, opts.Profiles[ref.col], &results[k])
		if opts.ArtifactsDir != "" && results[k].Err == nil {
			if err := dumpCellArtifacts(opts.ArtifactsDir, &results[k]); err != nil && c.Status == Pass {
				c.Status, c.Detail = Error, err.Error()
			}
		}
		if m.Coverage != nil && results[k].Err == nil && results[k].Report != nil {
			p := opts.Profiles[ref.col]
			m.Coverage[p] = coverage.MergeReports(m.Coverage[p], results[k].Report.Coverage)
		}
		if opts.Cache != nil && results[k].Err == nil && results[k].Report != nil {
			// Best-effort: a cache that cannot be written (full disk,
			// permissions) degrades to cold replays, it never fails one.
			if arts, err := resultcache.Render(results[k].Report); err == nil {
				_ = opts.Cache.Put(keys[k], arts)
			}
		}
		cells[ref] = c
	}
	for i, id := range ids {
		st := states[i]
		row := Row{EntryID: id}
		if st.entry != nil {
			row.Name = st.entry.Expected.Name
		}
		for j, p := range opts.Profiles {
			var c Cell
			if st.skip != Pass {
				c = Cell{EntryID: id, Profile: p, Status: st.skip, Detail: st.why}
			} else {
				c = cells[cellRef{i, j}]
			}
			c.StatusName = c.Status.String()
			opts.Hub.EmitArgs(telemetry.KindCorpusCell, "corpus", id,
				telemetry.S("profile", p),
				telemetry.S("status", c.StatusName),
				telemetry.S("detail", c.Detail))
			row.Cells = append(row.Cells, c)
		}
		m.Rows = append(m.Rows, row)
	}
	return m, nil
}

func entryDir(dir, id string) string { return filepath.Join(dir, id) }

// filterByTransport keeps the entries whose effective transport set
// intersects want. Unreadable entries are kept — Replay will surface
// them as error rows instead of silently hiding them from every
// filtered matrix.
func filterByTransport(dir string, ids, want []string) ([]string, error) {
	wanted := map[string]bool{}
	for _, t := range want {
		if _, err := rnic.ParseTransport(t); err != nil {
			return nil, err
		}
		wanted[strings.ToLower(t)] = true
	}
	var out []string
	for _, id := range ids {
		e, err := loadEntry(entryDir(dir, id))
		if err != nil {
			out = append(out, id)
			continue
		}
		for _, t := range e.Config.Traffic.Transports() {
			if wanted[t] {
				out = append(out, id)
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("corpus: no entries under %s use transport(s) %s",
			dir, strings.Join(want, ","))
	}
	return out, nil
}

// dumpCellArtifacts writes one replayed cell's diffable artifacts under
// dir/<entry>/<profile>/: summary.json always, int.json when the replay
// ran with INT, coverage.json when it ran with coverage. All files are
// byte-deterministic, so two dump trees from different worker counts
// must be identical — CI diffs them.
func dumpCellArtifacts(dir string, res *engine.JobResult) error {
	entry, profile, ok := strings.Cut(res.Label, "@")
	if !ok || res.Report == nil {
		return nil
	}
	cellDir := filepath.Join(dir, entry, profile)
	if err := os.MkdirAll(cellDir, 0o755); err != nil {
		return err
	}
	write := func(name string, render func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(cellDir, name))
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write("summary.json", res.Report.WriteSummary); err != nil {
		return err
	}
	if res.Report.INT != nil {
		if err := write("int.json", res.Report.WriteINT); err != nil {
			return err
		}
	}
	if res.Report.Coverage != nil {
		if err := write("coverage.json", res.Report.WriteCoverage); err != nil {
			return err
		}
	}
	return nil
}

// replayFromCache judges one cell from its cached artifact set and
// performs the side-effects a fresh run would have (artifact dump,
// coverage merge). usable=false sends the cell to the engine instead —
// the cached entry predates the current result schema or is missing an
// artifact the replay needs, so it will be re-run and re-put.
func replayFromCache(e *Entry, profile string, opts ReplayOptions, m *Matrix, arts map[string][]byte) (c Cell, usable bool) {
	res, err := resultcache.ParseResult(arts[resultcache.ResultName])
	if err != nil {
		return Cell{}, false
	}
	var cov *coverage.Report
	if m.Coverage != nil {
		if cov, err = coverage.ReadReport(arts["coverage.json"]); err != nil {
			return Cell{}, false
		}
	}
	got := ProfileExpectation{
		Verdicts:      res.Verdicts,
		TimedOut:      res.TimedOut,
		SummarySHA256: res.SummarySHA256,
	}
	c = judgeExpectation(e, profile, got)
	if opts.ArtifactsDir != "" {
		if err := dumpCachedArtifacts(opts.ArtifactsDir, e.ID, profile, arts); err != nil && c.Status == Pass {
			c.Status, c.Detail = Error, err.Error()
		}
	}
	if m.Coverage != nil {
		m.Coverage[profile] = coverage.MergeReports(m.Coverage[profile], cov)
	}
	return c, true
}

// dumpCachedArtifacts mirrors dumpCellArtifacts for a cache hit: the
// stored bytes were rendered by the same writers a fresh run uses, so
// the dumped tree is byte-identical to a cold replay's.
func dumpCachedArtifacts(dir, entry, profile string, arts map[string][]byte) error {
	cellDir := filepath.Join(dir, entry, profile)
	if err := os.MkdirAll(cellDir, 0o755); err != nil {
		return err
	}
	for _, name := range []string{"summary.json", "int.json", "coverage.json"} {
		data, ok := arts[name]
		if !ok {
			continue
		}
		if err := os.WriteFile(filepath.Join(cellDir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// judge compares one replayed cell against its golden expectation.
func judge(e *Entry, profile string, res *engine.JobResult) Cell {
	c := Cell{EntryID: e.ID, Profile: profile}
	if _, ok := e.Expected.Profiles[profile]; !ok {
		c.Status, c.Detail = Error, fmt.Sprintf("no golden recorded for profile %s", profile)
		return c
	}
	if res.Err != nil {
		c.Status, c.Detail = Error, res.Err.Error()
		return c
	}
	got, err := expectationOf(res.Report)
	if err != nil {
		c.Status, c.Detail = Error, err.Error()
		return c
	}
	return judgeExpectation(e, profile, got)
}

// judgeExpectation scores an already-extracted expectation — the shared
// tail of the fresh-run and cache-hit judging paths.
func judgeExpectation(e *Entry, profile string, got ProfileExpectation) Cell {
	c := Cell{EntryID: e.ID, Profile: profile}
	golden, ok := e.Expected.Profiles[profile]
	if !ok {
		c.Status, c.Detail = Error, fmt.Sprintf("no golden recorded for profile %s", profile)
		return c
	}
	if diff := verdictDiff(golden, got); diff != "" {
		c.Status, c.Detail = VerdictDrift, diff
		return c
	}
	if got.SummarySHA256 != golden.SummarySHA256 {
		c.Status = DigestDrift
		c.Detail = fmt.Sprintf("summary digest %s, golden %s",
			got.SummarySHA256[:12], golden.SummarySHA256[:12])
		return c
	}
	c.Status = Pass
	return c
}

// verdictDiff describes the first verdict disagreement, or "" if the
// verdict sets (and timeout flags) match.
func verdictDiff(golden, got ProfileExpectation) string {
	if golden.TimedOut != got.TimedOut {
		return fmt.Sprintf("timed_out %t, golden %t", got.TimedOut, golden.TimedOut)
	}
	names := make([]string, 0, len(golden.Verdicts)+len(got.Verdicts))
	for n := range golden.Verdicts {
		names = append(names, n)
	}
	for n := range got.Verdicts {
		if _, ok := golden.Verdicts[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		g, gok := golden.Verdicts[n]
		r, rok := got.Verdicts[n]
		switch {
		case !gok:
			return fmt.Sprintf("verdict %s appeared (pass=%t), absent from golden", n, r)
		case !rok:
			return fmt.Sprintf("verdict %s missing, golden pass=%t", n, g)
		case g != r:
			return fmt.Sprintf("verdict %s pass=%t, golden pass=%t", n, r, g)
		}
	}
	return ""
}

// runProfiles executes cfg once per requested profile (used by Add to
// record goldens), returning reports in profile order or the first
// failure.
func runProfiles(cfg config.Test, opts RunOptions) ([]*orchestrator.Report, error) {
	cfgs := make([]config.Test, len(opts.Profiles))
	for i, p := range opts.Profiles {
		cfgs[i] = withProfile(cfg, p)
	}
	return engine.RunConfigs(context.Background(), cfgs,
		orchestrator.Options{Deadline: opts.Deadline, Lineage: true},
		engine.Options{Workers: opts.Workers})
}
