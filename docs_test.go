package ccba

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"ccba/internal/analysis"
)

// Documentation integrity checks, run by the CI docs-check job (and by the
// ordinary test suite, so a dangling citation fails locally too):
//
//   - every `DESIGN.md §N` citation in Go sources and markdown resolves to
//     a `## §N` section of DESIGN.md;
//   - markdown files carry no `[[...]]`-style placeholder references;
//   - relative links in markdown files point at files that exist;
//   - DESIGN.md's table of contents lists every `## §N` section under an
//     anchor that resolves, and its §3 table has a row per experiment
//     generator.

// docsFiles walks the repository (skipping .git and testdata) and returns
// the files with one of the given extensions.
func docsFiles(t *testing.T, exts ...string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || name == "node_modules" {
				return filepath.SkipDir
			}
			return nil
		}
		for _, ext := range exts {
			if strings.HasSuffix(path, ext) {
				out = append(out, path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("no %v files found — walk broken?", exts)
	}
	return out
}

// TestDesignReferencesResolve pins every in-code `DESIGN.md §N` citation to
// an existing section.
func TestDesignReferencesResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatalf("DESIGN.md must exist — the code cites it: %v", err)
	}
	sections := map[string]bool{}
	heading := regexp.MustCompile(`(?m)^## §(\d+)`)
	for _, m := range heading.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no '## §N' sections")
	}

	cite := regexp.MustCompile(`DESIGN\.md §(\d+)`)
	for _, path := range docsFiles(t, ".go", ".md") {
		if filepath.Base(path) == "docs_test.go" {
			continue // the patterns above would match themselves
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllStringSubmatch(string(data), -1) {
			if !sections[m[1]] {
				t.Errorf("%s cites DESIGN.md §%s, but DESIGN.md has no '## §%s' section", path, m[1], m[1])
			}
		}
	}
}

// TestNoPlaceholderReferences rejects `[[...]]`-style wiki placeholders in
// markdown — the marker used while drafting a doc for links that were
// never filled in.
func TestNoPlaceholderReferences(t *testing.T) {
	placeholder := regexp.MustCompile(`\[\[[^\]]*\]\]`)
	for _, path := range docsFiles(t, ".md") {
		if path == "ISSUE.md" {
			continue // the task statement mentions the pattern by name
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := placeholder.FindString(line); m != "" {
				t.Errorf("%s:%d: placeholder reference %q", path, i+1, m)
			}
		}
	}
}

// TestMarkdownRelativeLinks checks that every relative markdown link
// resolves to an existing file (http(s)/mailto and pure-anchor links are
// skipped; anchors on relative links are stripped before checking).
func TestMarkdownRelativeLinks(t *testing.T) {
	link := regexp.MustCompile(`\]\(([^)\s]+)\)`)
	for _, path := range docsFiles(t, ".md") {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range link.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
					strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
					continue
				}
				target, _, _ = strings.Cut(target, "#")
				resolved := filepath.Join(filepath.Dir(path), target)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s:%d: broken relative link %q (%v)", path, i+1, m[1], err)
				}
			}
		}
	}
}

// headingAnchor is the fragment a markdown renderer derives from a heading:
// lower-cased, every character that is not a letter, digit, '_', '-' or
// space dropped, spaces turned into hyphens.
func headingAnchor(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		}
	}
	return b.String()
}

// TestDesignTableOfContents keeps DESIGN.md's table of contents equal to its
// body: every `## §N` heading has exactly one entry carrying the heading's
// text and the anchor the heading renders to, and no entry points at a
// heading that is gone.
func TestDesignTableOfContents(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var headings []string
	for _, m := range regexp.MustCompile(`(?m)^## (§\d+ .*)$`).FindAllStringSubmatch(string(design), -1) {
		headings = append(headings, m[1])
	}
	var entries [][]string // [_, text, anchor]
	for _, m := range regexp.MustCompile(`(?m)^- \[(§\d+ [^\]]*)\]\(#([^)]*)\)$`).FindAllStringSubmatch(string(design), -1) {
		entries = append(entries, m)
	}
	if len(headings) == 0 {
		t.Fatal("DESIGN.md has no '## §N' sections")
	}
	for i, h := range headings {
		if i >= len(entries) {
			t.Errorf("DESIGN.md table of contents has no entry for %q", h)
			continue
		}
		if text, anchor := entries[i][1], entries[i][2]; text != h || anchor != headingAnchor(h) {
			t.Errorf("DESIGN.md table of contents entry %d is [%s](#%s), want [%s](#%s)", i+1, text, anchor, h, headingAnchor(h))
		}
	}
	for _, e := range entries[min(len(entries), len(headings)):] {
		t.Errorf("DESIGN.md table of contents entry [%s] has no '## %s' section", e[1], e[1])
	}
}

// TestDesignSectionThreeCoversExperiments pins DESIGN.md §3's table to the
// generators internal/experiments exports (func E<k><Name>(o Opts, …)): an
// experiment without a row, or a heading whose E1–E<k> range stops short of
// the last one, fails.
func TestDesignSectionThreeCoversExperiments(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(design), "\n## §3")
	if !found {
		t.Fatal("DESIGN.md has no '## §3' section")
	}
	if next := strings.Index(section, "\n## §"); next >= 0 {
		section = section[:next]
	}
	title, _, _ := strings.Cut(section, "\n")

	files, err := filepath.Glob("internal/experiments/*.go")
	if err != nil {
		t.Fatal(err)
	}
	generator := regexp.MustCompile(`(?m)^func E(\d+)[A-Za-z]+\(o Opts`)
	ids, last := map[string]bool{}, 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range generator.FindAllStringSubmatch(string(data), -1) {
			ids[m[1]] = true
			if k, _ := strconv.Atoi(m[1]); k > last {
				last = k
			}
		}
	}
	if len(ids) < 15 {
		t.Fatalf("only %d experiment generators discovered in internal/experiments — pattern broken?", len(ids))
	}
	for id := range ids {
		if !strings.Contains(section, "\n| E"+id+" |") {
			t.Errorf("DESIGN.md §3 has no table row for experiment E%s", id)
		}
	}
	if want := "E1–E" + strconv.Itoa(last); !strings.Contains(title, want) {
		t.Errorf("DESIGN.md §3 heading %q does not name the range %s", strings.TrimSpace(title), want)
	}
}

// TestDesignCoversEveryPackage keeps the doc.go convention honest: every
// internal package must carry a doc.go whose package comment points into
// DESIGN.md.
func TestDesignCoversEveryPackage(t *testing.T) {
	seen := map[string]bool{}
	for _, path := range docsFiles(t, ".go") {
		if !strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
			continue
		}
		seen[filepath.Dir(path)] = seen[filepath.Dir(path)] || filepath.Base(path) == "doc.go"
	}
	for dir, hasDoc := range seen {
		if !hasDoc {
			t.Errorf("%s has no doc.go (package docs with a DESIGN.md pointer live there)", dir)
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, "doc.go"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "DESIGN.md §") {
			t.Errorf("%s/doc.go does not point into DESIGN.md", dir)
		}
	}
	if len(seen) < 20 {
		t.Fatalf("only %d internal packages discovered — walk broken?", len(seen))
	}
}

// TestDesignSectionEightCoversAnalyzers pins DESIGN.md §8 to the ccbavet
// analyzer set: every analyzer the multichecker runs must be named and
// documented there, so adding an analyzer without writing down the
// invariant it guards fails the suite.
func TestDesignSectionEightCoversAnalyzers(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(design), "\n## §8")
	if !found {
		t.Fatal("DESIGN.md has no '## §8' section")
	}
	if next := strings.Index(section, "\n## §"); next >= 0 {
		section = section[:next]
	}
	for _, a := range analysis.All() {
		if !strings.Contains(section, "**"+a.Name+"**") {
			t.Errorf("DESIGN.md §8 does not document analyzer %q", a.Name)
		}
		if a.Directive != "" && !strings.Contains(string(design), a.Directive) {
			t.Errorf("DESIGN.md never mentions %q, analyzer %s's escape hatch", a.Directive, a.Name)
		}
	}
}

// TestDocsDoNotNameDeletedKnobs keeps README and DESIGN from describing
// options and commands that no longer exist: the stepping worker count is
// min(GOMAXPROCS, n) and nothing selects it, the root benchmarks run
// through go test -bench, not a command of their own, the chaos layer runs
// the config's network model (no ChaosConfig, SimRun, Options.Chaos or
// -chaos-* flags) in the round loop (no -reorder, ReorderRate, ChaosSpec,
// WrapChaos or NewChaosNetwork), core's window retention follows
// core.Config.Lockstep, wall-clock timing lives in obs.Telemetry,
// tickets verify through Verifier().Verify alone, and one command runs
// every runtime (cmd/ba -transport; no cmd/cluster, internal/cli or
// -round-timeout), and the network model is the one netsim.Faults type (no
// NetModel interface, no DeltaOne constructor). The one exemption is a
// table row marked as a dated record ("PR <n> record"), which may say what
// flag a historical measurement was taken with.
func TestDocsDoNotNameDeletedKnobs(t *testing.T) {
	deleted := regexp.MustCompile("(^|[\\s`])-parallel\\b|-sparse-workers|SparseWorkers|Config\\.Parallel|`Parallel: true`|cmd/\\bbench\\b|\\bRun(Node)?Chaos\\b|Config\\.Compact|TimingLog|VerifyBatch|ChaosConfig|SimRun|Options\\.Chaos|(^|[\\s`])-chaos-|(^|[\\s`])-reorder\\b|ReorderRate|ChaosSpec|WrapChaos|NewChaosNetwork|cmd/cluster\\b|internal/cli\\b|(^|[\\s`])-round-timeout\\b|\\bNetModel\\b|\\bDeltaOne\\b")
	record := regexp.MustCompile(`PR \d+ record`)
	for _, path := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "|") && record.MatchString(line) {
				continue
			}
			if m := deleted.FindString(line); m != "" {
				t.Errorf("%s:%d names %q, which no longer exists", path, i+1, m)
			}
		}
	}
}
