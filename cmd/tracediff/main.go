// Command tracediff compares two canonical round-event traces — the JSONL
// files `ba -trace` writes under any -transport (DESIGN.md §10) — and
// reports the first divergence. Because every runtime emits events in the
// canonical (round, node, kind, seq) order, alignment is line-by-line: the
// first differing line is the first semantically divergent event, and the
// lines around it are the shared prefix and each trace's continuation.
//
//	ba -n 80 -f 24 -lambda 16 -seed 7 -trace sim.jsonl
//	ba -transport chan -n 80 -f 24 -lambda 16 -seed 7 -trace live.jsonl
//	tracediff sim.jsonl live.jsonl
//
// Exit status: 0 when the traces are identical, 1 when they diverge, 2 on
// usage or I/O errors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("tracediff", flag.ContinueOnError)
	fs.SetOutput(errOut)
	ctx := fs.Int("context", 3, "events of shared prefix and per-trace continuation to print around the divergence")
	fs.Usage = func() {
		fmt.Fprintln(errOut, "usage: tracediff [-context n] trace-a.jsonl trace-b.jsonl")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	pathA, pathB := fs.Arg(0), fs.Arg(1)
	fa, err := os.Open(pathA)
	if err != nil {
		fmt.Fprintln(errOut, "tracediff:", err)
		return 2
	}
	defer fa.Close()
	fb, err := os.Open(pathB)
	if err != nil {
		fmt.Fprintln(errOut, "tracediff:", err)
		return 2
	}
	defer fb.Close()
	d, n, err := diff(fa, fb, pathA, pathB, *ctx)
	if err != nil {
		fmt.Fprintln(errOut, "tracediff:", err)
		return 2
	}
	if d == nil {
		fmt.Fprintf(out, "traces identical (%d events)\n", n)
		return 0
	}
	d.report(out, pathA, pathB)
	return 1
}

// divergence captures everything report needs: the 1-based event number,
// the shared prefix just before it, the two differing lines, and each
// trace's continuation after the split.
type divergence struct {
	event  int
	prefix []string
	lineA  string // empty when trace A ended first
	lineB  string
	nextA  []string
	nextB  []string
}

// diff scans both traces in lockstep. It returns (nil, count, nil) when
// they are byte-identical, else the first divergence with ctx lines of
// surrounding context from each side.
func diff(a, b io.Reader, nameA, nameB string, ctx int) (*divergence, int, error) {
	sa, sb := newScanner(a), newScanner(b)
	var prefix []string
	n := 0
	for {
		okA, okB := sa.Scan(), sb.Scan()
		if err := sa.Err(); err != nil {
			return nil, n, fmt.Errorf("%s: %w", nameA, err)
		}
		if err := sb.Err(); err != nil {
			return nil, n, fmt.Errorf("%s: %w", nameB, err)
		}
		if !okA && !okB {
			return nil, n, nil
		}
		n++
		la, lb := "", ""
		if okA {
			la = sa.Text()
		}
		if okB {
			lb = sb.Text()
		}
		if okA && okB && la == lb {
			prefix = append(prefix, la)
			if len(prefix) > ctx {
				prefix = prefix[1:]
			}
			continue
		}
		d := &divergence{event: n, prefix: prefix, lineA: la, lineB: lb}
		d.nextA = following(sa, ctx)
		d.nextB = following(sb, ctx)
		return d, n, nil
	}
}

// newScanner wraps a trace reader with a line budget generous enough for
// any single event line.
func newScanner(r io.Reader) *bufio.Scanner {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return s
}

// following drains up to n more lines from a scanner mid-divergence.
func following(s *bufio.Scanner, n int) []string {
	var lines []string
	for len(lines) < n && s.Scan() {
		lines = append(lines, s.Text())
	}
	return lines
}

// describe renders an event line's identifying fields for the headline;
// the raw JSON is printed alongside, so best-effort parsing is fine.
func describe(line string) string {
	if line == "" {
		return "end of trace"
	}
	var e struct {
		Round int    `json:"round"`
		Node  int    `json:"node"`
		Ev    string `json:"ev"`
	}
	if json.Unmarshal([]byte(line), &e) != nil {
		return "unparseable event"
	}
	return fmt.Sprintf("round %d node %d %s", e.Round, e.Node, e.Ev)
}

func (d *divergence) report(out io.Writer, nameA, nameB string) {
	fmt.Fprintf(out, "traces diverge at event %d: %s vs %s\n", d.event, describe(d.lineA), describe(d.lineB))
	if len(d.prefix) > 0 {
		fmt.Fprintln(out, "shared prefix:")
		for _, l := range d.prefix {
			fmt.Fprintf(out, "    %s\n", l)
		}
	}
	side := func(name, line string, next []string) {
		if line == "" {
			fmt.Fprintf(out, "%s: <end of trace>\n", name)
			return
		}
		fmt.Fprintf(out, "%s:\n", name)
		fmt.Fprintf(out, "  > %s\n", line)
		for _, l := range next {
			fmt.Fprintf(out, "    %s\n", l)
		}
	}
	side(nameA, d.lineA, d.nextA)
	side(nameB, d.lineB, d.nextB)
}
