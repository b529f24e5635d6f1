package partition

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"loom/internal/graph"
)

// The assignment text codec serialises a placement as one record per line:
//
//	# k=<partitions>
//	p <vertex> <partition>
//
// Vertices are emitted ascending, so output is deterministic and diffable.
// It is the on-disk interchange of `loom partition -out` and `loom
// evaluate -assign`.

// WriteAssignment serialises a to w in the assignment text format.
func WriteAssignment(w io.Writer, a *Assignment) error {
	bw := bufio.NewWriter(w)
	type pair struct {
		v graph.VertexID
		p ID
	}
	pairs := make([]pair, 0, a.Len())
	a.EachVertex(func(v graph.VertexID, p ID) {
		pairs = append(pairs, pair{v, p})
	})
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	if _, err := fmt.Fprintf(bw, "# k=%d\n", a.K()); err != nil {
		return err
	}
	for _, pr := range pairs {
		if _, err := fmt.Fprintf(bw, "p %d %d\n", pr.v, pr.p); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadAssignment parses the assignment text format. A `# k=<n>` header
// fixes the partition count; without one, k is inferred as the highest
// partition index seen plus one. Other comment lines and blank lines are
// ignored. Malformed lines yield an error naming the offending line.
func ReadAssignment(r io.Reader) (*Assignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	k := 0
	type rec struct {
		v graph.VertexID
		p ID
	}
	var recs []rec
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# k=") {
			n, err := strconv.Atoi(strings.TrimPrefix(line, "# k="))
			if err != nil {
				return nil, fmt.Errorf("partition: line %d: bad k header %q: %v", lineNo, line, err)
			}
			k = n
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "p" {
			return nil, fmt.Errorf("partition: line %d: want 'p <vertex> <partition>', got %q", lineNo, line)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("partition: line %d: bad vertex id %q: %v", lineNo, fields[1], err)
		}
		p, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("partition: line %d: bad partition id %q: %v", lineNo, fields[2], err)
		}
		if p < 0 {
			return nil, fmt.Errorf("partition: line %d: negative partition id %d", lineNo, p)
		}
		recs = append(recs, rec{graph.VertexID(v), ID(p)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if k == 0 {
		for _, r := range recs {
			if int(r.p)+1 > k {
				k = int(r.p) + 1
			}
		}
	}
	if k == 0 {
		k = 1 // an empty assignment still needs a valid k
	}
	a, err := NewAssignment(k)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if err := a.Set(r.v, r.p); err != nil {
			return nil, err
		}
	}
	return a, nil
}
