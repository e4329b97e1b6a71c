// Command avgtrace reads a flight-recorder trace artifact (NDJSON, written
// by internal/obs via avgserve -trace-dir, avgcampaign -trace, avgworker
// -trace or avgchaos -trace) and prints what happened: a per-stage summary,
// a span waterfall, the chunk timeline of fleet runs (leases, steals,
// requeues, completions), and the critical path. A chaos soak or fleet
// campaign is debuggable from its artifact alone — no live process needed.
// An artifact whose header is not a trace line is a one-line error naming
// its type, never a misrendered guess.
//
// Usage:
//
//	avgtrace run.trace.ndjson
//	avgtrace -waterfall=false -chunks=false run.trace.ndjson   # summary only
//	cat run.trace.ndjson | avgtrace -
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"avgloc/internal/obs"
)

func main() {
	waterfall := flag.Bool("waterfall", true, "print the span waterfall")
	chunks := flag.Bool("chunks", true, "print the fleet chunk timeline")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: avgtrace [-waterfall] [-chunks] <artifact.ndjson | ->")
		os.Exit(2)
	}
	var in io.Reader = os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "avgtrace:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	data, err := io.ReadAll(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "avgtrace:", err)
		os.Exit(1)
	}
	out, err := render(data, *waterfall, *chunks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "avgtrace:", err)
		os.Exit(1)
	}
	fmt.Print(out)
}

// render prints a trace artifact. The first line's type must be a trace
// line type; anything else is another NDJSON format, and falling through to
// the trace reader would misread it as an empty trace.
func render(data []byte, waterfall, chunks bool) (string, error) {
	switch typ := headerType(data); typ {
	case "", "trace", "span", "event":
		// Trace line types — including a truncated artifact that lost its
		// header — go to the trace reader, whose errors name the problem
		// ("artifact has no trace header line").
	default:
		return "", fmt.Errorf("unknown artifact header type %q (avgtrace reads trace artifacts only)", typ)
	}
	tr, err := readTrace(bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	a := analyze(tr)
	var b strings.Builder
	b.WriteString(renderSummary(a))
	if waterfall {
		b.WriteString(renderWaterfall(a))
	}
	if chunks && len(a.Chunks) > 0 {
		b.WriteString(renderChunks(a))
	}
	b.WriteString(renderCriticalPath(a))
	return b.String(), nil
}

// headerType probes the first NDJSON line's type field; a line that is not
// a JSON object probes as "".
func headerType(data []byte) string {
	line := data
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line = data[:i]
	}
	var probe struct {
		Type string `json:"type"`
	}
	if json.Unmarshal(line, &probe) != nil {
		return ""
	}
	return probe.Type
}

// trace is a parsed artifact.
type trace struct {
	header obs.Line
	spans  []obs.Line
	events []obs.Line
}

// readTrace parses an NDJSON artifact. Unknown line types are skipped so
// newer artifacts stay readable; a missing header is an error.
func readTrace(r io.Reader) (*trace, error) {
	tr := &trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	n := 0
	for sc.Scan() {
		n++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var l obs.Line
		if err := json.Unmarshal([]byte(text), &l); err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
		switch l.Type {
		case "trace":
			tr.header = l
		case "span":
			tr.spans = append(tr.spans, l)
		case "event":
			tr.events = append(tr.events, l)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if tr.header.Type == "" {
		return nil, fmt.Errorf("artifact has no trace header line")
	}
	return tr, nil
}

// stageAgg aggregates one span name.
type stageAgg struct {
	Name    string
	Count   int
	TotalUS int64
	MinUS   int64
	MaxUS   int64
}

// chunkLease is one lease/steal of a chunk as seen by the coordinator.
type chunkLease struct {
	AtUS   int64
	Worker string
	Stolen bool
}

// chunkInfo is the reconstructed lifecycle of one fleet chunk.
type chunkInfo struct {
	ID          string
	Row         int
	Lo, Hi      int
	QueuedUS    int64 // -1 when unseen
	Leases      []chunkLease
	Requeues    int
	CompletedUS int64 // -1 while incomplete
	CompletedBy string
	ErrorMsg    string
	Duplicates  int
	Lost        bool
}

// analysis is everything the renderers need, exposed for tests.
type analysis struct {
	Name    string
	Start   string
	EndUS   int64 // max at+dur over spans, max at over events
	Spans   int
	Events  int
	Stages  []stageAgg
	Roots   []*node
	Chunks  []*chunkInfo
	ByTime  []*node // every span node ordered by start time
	nodeByI map[uint64]*node
}

// node is one span in the reconstructed tree.
type node struct {
	Line     obs.Line
	Children []*node
}

func attrString(l obs.Line, key string) string {
	if v, ok := l.Attrs[key]; ok {
		return fmt.Sprintf("%v", v)
	}
	return ""
}

func attrInt(l obs.Line, key string) int {
	if v, ok := l.Attrs[key].(float64); ok {
		return int(v)
	}
	return -1
}

// analyze reconstructs the span tree, per-stage aggregates and the chunk
// timeline from a parsed artifact.
func analyze(tr *trace) *analysis {
	a := &analysis{
		Name:    tr.header.Name,
		Start:   tr.header.Start,
		Spans:   len(tr.spans),
		Events:  len(tr.events),
		nodeByI: make(map[uint64]*node, len(tr.spans)),
	}

	stages := make(map[string]*stageAgg)
	for _, sp := range tr.spans {
		if end := sp.AtUS + sp.DurUS; end > a.EndUS {
			a.EndUS = end
		}
		ag := stages[sp.Name]
		if ag == nil {
			ag = &stageAgg{Name: sp.Name, MinUS: sp.DurUS}
			stages[sp.Name] = ag
		}
		ag.Count++
		ag.TotalUS += sp.DurUS
		if sp.DurUS < ag.MinUS {
			ag.MinUS = sp.DurUS
		}
		if sp.DurUS > ag.MaxUS {
			ag.MaxUS = sp.DurUS
		}
		a.nodeByI[sp.ID] = &node{Line: sp}
	}
	for _, ag := range stages {
		a.Stages = append(a.Stages, *ag)
	}
	sort.Slice(a.Stages, func(i, j int) bool { return a.Stages[i].TotalUS > a.Stages[j].TotalUS })

	for _, n := range a.nodeByI {
		if p := a.nodeByI[n.Line.Parent]; n.Line.Parent != 0 && p != nil {
			p.Children = append(p.Children, n)
		} else {
			a.Roots = append(a.Roots, n)
		}
		a.ByTime = append(a.ByTime, n)
	}
	byStart := func(ns []*node) {
		sort.Slice(ns, func(i, j int) bool {
			if ns[i].Line.AtUS != ns[j].Line.AtUS {
				return ns[i].Line.AtUS < ns[j].Line.AtUS
			}
			return ns[i].Line.ID < ns[j].Line.ID
		})
	}
	byStart(a.Roots)
	byStart(a.ByTime)
	for _, n := range a.nodeByI {
		byStart(n.Children)
	}

	chunks := make(map[string]*chunkInfo)
	chunkOf := func(ev obs.Line) *chunkInfo {
		id := attrString(ev, "chunk")
		if id == "" {
			return nil
		}
		c := chunks[id]
		if c == nil {
			c = &chunkInfo{ID: id, Row: -1, Lo: -1, Hi: -1, QueuedUS: -1, CompletedUS: -1}
			chunks[id] = c
		}
		if r := attrInt(ev, "row"); r >= 0 {
			c.Row = r
		}
		if lo := attrInt(ev, "lo"); lo >= 0 {
			c.Lo = lo
		}
		if hi := attrInt(ev, "hi"); hi >= 0 {
			c.Hi = hi
		}
		return c
	}
	for _, ev := range tr.events {
		if ev.AtUS > a.EndUS {
			a.EndUS = ev.AtUS
		}
		c := chunkOf(ev)
		if c == nil {
			continue
		}
		switch ev.Name {
		case "chunk.queued":
			c.QueuedUS = ev.AtUS
		case "chunk.lease":
			c.Leases = append(c.Leases, chunkLease{AtUS: ev.AtUS, Worker: attrString(ev, "worker")})
		case "chunk.steal":
			c.Leases = append(c.Leases, chunkLease{AtUS: ev.AtUS, Worker: attrString(ev, "worker"), Stolen: true})
		case "chunk.requeue":
			c.Requeues++
		case "chunk.complete":
			c.CompletedUS = ev.AtUS
			c.CompletedBy = attrString(ev, "worker")
		case "chunk.error":
			c.CompletedUS = ev.AtUS
			c.CompletedBy = attrString(ev, "worker")
			c.ErrorMsg = attrString(ev, "error")
		case "chunk.duplicate":
			c.Duplicates++
		case "chunk.lost":
			c.Lost = true
		}
	}
	for _, c := range chunks {
		a.Chunks = append(a.Chunks, c)
	}
	sort.Slice(a.Chunks, func(i, j int) bool {
		ci, cj := a.Chunks[i], a.Chunks[j]
		if ci.Row != cj.Row {
			return ci.Row < cj.Row
		}
		if ci.Lo != cj.Lo {
			return ci.Lo < cj.Lo
		}
		return ci.ID < cj.ID
	})
	return a
}

func us(v int64) string {
	return time.Duration(v * int64(time.Microsecond)).Round(100 * time.Microsecond).String()
}

func renderSummary(a *analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (start %s)\n", a.Name, a.Start)
	fmt.Fprintf(&b, "spans %d, events %d, duration %s\n\n", a.Spans, a.Events, us(a.EndUS))
	if len(a.Stages) == 0 {
		return b.String()
	}
	nameW := len("stage")
	for _, st := range a.Stages {
		if len(st.Name) > nameW {
			nameW = len(st.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s  %6s  %10s  %10s  %10s\n", nameW, "stage", "count", "total", "min", "max")
	for _, st := range a.Stages {
		fmt.Fprintf(&b, "%-*s  %6d  %10s  %10s  %10s\n", nameW, st.Name, st.Count, us(st.TotalUS), us(st.MinUS), us(st.MaxUS))
	}
	b.WriteString("\n")
	return b.String()
}

// spanLabel picks the identifying attributes worth showing inline.
func spanLabel(l obs.Line) string {
	var parts []string
	for _, k := range []string{"key", "name", "row", "chunk", "worker", "hit", "cached", "error"} {
		if v, ok := l.Attrs[k]; ok {
			sv := fmt.Sprintf("%v", v)
			if k == "key" && len(sv) > 12 {
				sv = sv[:12] + "…"
			}
			parts = append(parts, fmt.Sprintf("%s=%s", k, sv))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return " " + strings.Join(parts, " ")
}

func renderWaterfall(a *analysis) string {
	var b strings.Builder
	b.WriteString("waterfall:\n")
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		fmt.Fprintf(&b, "  %10s  %10s  %s%s%s\n",
			"+"+us(n.Line.AtUS), us(n.Line.DurUS), strings.Repeat("  ", depth), n.Line.Name, spanLabel(n.Line))
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range a.Roots {
		walk(r, 0)
	}
	b.WriteString("\n")
	return b.String()
}

func renderChunks(a *analysis) string {
	var b strings.Builder
	b.WriteString("chunk timeline:\n")
	for _, c := range a.Chunks {
		var parts []string
		if c.QueuedUS >= 0 {
			parts = append(parts, fmt.Sprintf("queued +%s", us(c.QueuedUS)))
		}
		steals := 0
		for _, l := range c.Leases {
			verb := "leased"
			if l.Stolen {
				verb = "stolen"
				steals++
			}
			parts = append(parts, fmt.Sprintf("%s +%s→%s", verb, us(l.AtUS), l.Worker))
		}
		if c.Requeues > 0 {
			parts = append(parts, fmt.Sprintf("requeued ×%d", c.Requeues))
		}
		switch {
		case c.ErrorMsg != "":
			parts = append(parts, fmt.Sprintf("failed +%s by %s (%s)", us(c.CompletedUS), c.CompletedBy, c.ErrorMsg))
		case c.CompletedUS >= 0:
			done := fmt.Sprintf("completed +%s by %s", us(c.CompletedUS), c.CompletedBy)
			if n := len(c.Leases); n > 0 {
				done += fmt.Sprintf(" (exec %s)", us(c.CompletedUS-c.Leases[n-1].AtUS))
			}
			parts = append(parts, done)
		case c.Lost:
			parts = append(parts, "lost (retry budget exhausted)")
		default:
			parts = append(parts, "incomplete")
		}
		if c.Duplicates > 0 {
			parts = append(parts, fmt.Sprintf("duplicates ×%d", c.Duplicates))
		}
		where := ""
		if c.Row >= 0 {
			where = fmt.Sprintf(" (row %d, trials [%d,%d))", c.Row, c.Lo, c.Hi)
		}
		fmt.Fprintf(&b, "  %s%s: %s\n", c.ID, where, strings.Join(parts, ", "))
	}
	b.WriteString("\n")
	return b.String()
}

// renderCriticalPath descends from the longest root through the child
// that finished last — the chain that bounded the run's wall clock.
func renderCriticalPath(a *analysis) string {
	if len(a.Roots) == 0 {
		return ""
	}
	longest := a.Roots[0]
	for _, r := range a.Roots[1:] {
		if r.Line.DurUS > longest.Line.DurUS {
			longest = r
		}
	}
	var b strings.Builder
	b.WriteString("critical path: ")
	var names []string
	for n := longest; n != nil; {
		names = append(names, fmt.Sprintf("%s (%s)", n.Line.Name, us(n.Line.DurUS)))
		var last *node
		for _, c := range n.Children {
			if last == nil || c.Line.AtUS+c.Line.DurUS > last.Line.AtUS+last.Line.DurUS {
				last = c
			}
		}
		n = last
	}
	b.WriteString(strings.Join(names, " → "))
	b.WriteString("\n")
	return b.String()
}
