package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"gplus/internal/crawler"
	"gplus/internal/graph"
	"gplus/internal/profile"
)

// Text interchange format: the paper released its crawl "available to
// the wider research community" as flat files; this codec reads and
// writes the conventional form — one directed edge per line, two
// whitespace-separated opaque user ids, '#' comments allowed. Profiles
// are not part of the edge-list format; ImportEdgeList yields a dataset
// of discovered-but-uncrawled users, which supports every structural
// analysis (Table 4, Figures 3-5).

// WriteEdgeList writes the graph as "from<TAB>to" lines using the
// dataset's service ids, preceded by a size comment.
func (d *Dataset) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	g := d.View()
	rows := g.Rows()
	fmt.Fprintf(bw, "# gplus edge list: %d nodes, %d edges\n", d.NumUsers(), g.NumEdges())
	for u := 0; u < d.NumUsers(); u++ {
		from := d.IDs[u]
		for _, v := range rows.Out(graph.NodeID(u)) {
			if _, err := fmt.Fprintf(bw, "%s\t%s\n", from, d.IDs[v]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ImportEdgeList parses an edge-list stream into a dataset. Node ids are
// assigned in sorted order of the user ids encountered, matching
// FromCrawl's convention. Lines starting with '#' and blank lines are
// skipped; each data line must hold exactly two whitespace-separated
// ids.
func ImportEdgeList(r io.Reader) (*Dataset, error) {
	scanner := bufio.NewScanner(bufio.NewReaderSize(r, 1<<16))
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<24)

	type edge struct{ from, to string }
	var (
		edges []edge
		seen  = make(map[string]bool)
		line  int
	)
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("dataset: edge list line %d: want 2 fields, got %d", line, len(fields))
		}
		edges = append(edges, edge{fields[0], fields[1]})
		seen[fields[0]] = true
		seen[fields[1]] = true
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if len(seen) == 0 {
		return nil, fmt.Errorf("dataset: edge list holds no edges")
	}

	// Reuse FromCrawl's deterministic construction through a synthetic
	// crawl result with no fetched profiles.
	res := &crawler.Result{
		Profiles:   map[string]profile.Profile{},
		Discovered: seen,
	}
	for _, e := range edges {
		res.Edges = append(res.Edges, crawler.Edge{From: e.from, To: e.to})
	}
	return FromCrawl(res), nil
}
