package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
)

// member is one member of a JSON object (or element of an array, key "")
// with the byte span of its value in the enclosing document.
type member struct {
	key    string
	lo, hi int
}

// children lists the members of the JSON object or array at data[lo:hi].
// Spans, not decoded values, are what -update needs: it replaces number
// texts in place, so a baseline file keeps its layout, key order, notes
// and every field the tool does not own.
func children(data []byte, lo, hi int) ([]member, error) {
	dec := json.NewDecoder(bytes.NewReader(data[lo:hi]))
	open, err := dec.Token()
	if err != nil {
		return nil, err
	}
	isObj := open == json.Delim('{')
	if !isObj && open != json.Delim('[') {
		return nil, fmt.Errorf("offset %d: want an object or array, found %v", lo, open)
	}
	var out []member
	for dec.More() {
		var m member
		if isObj {
			k, err := dec.Token()
			if err != nil {
				return nil, err
			}
			m.key = k.(string)
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return nil, err
		}
		m.hi = lo + int(dec.InputOffset())
		m.lo = m.hi - len(raw)
		out = append(out, m)
	}
	return out, nil
}

func find(ms []member, key string) *member {
	for i := range ms {
		if ms[i].key == key {
			return &ms[i]
		}
	}
	return nil
}

// edit replaces data[lo:hi] with text.
type edit struct {
	lo, hi int
	text   string
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// tenth rounds to one decimal, the precision the derived fields carry.
func tenth(v float64) string { return strconv.FormatFloat(math.Round(v*10)/10, 'f', 1, 64) }

// rewriteBlock queues edits replacing each ns_op/bytes_op/allocs_op the
// block at data[blk.lo:blk.hi] already records by cur's value, and returns
// the block's metrics as they read now and as they will read afterwards.
// With measured false it only reads the block.
func rewriteBlock(data []byte, name string, blk *member, cur metrics, measured bool, edits *[]edit) (old, now metrics, err error) {
	if err := json.Unmarshal(data[blk.lo:blk.hi], &old); err != nil {
		return old, now, fmt.Errorf("%s: %s: %w", name, blk.key, err)
	}
	now = old
	if !measured {
		return old, now, nil
	}
	fields, err := children(data, blk.lo, blk.hi)
	if err != nil {
		return old, now, err
	}
	for _, f := range fields {
		var v *float64
		switch f.key {
		case "ns_op":
			v, now.NsOp = cur.NsOp, cur.NsOp
		case "bytes_op":
			v, now.BytesOp = cur.BytesOp, cur.BytesOp
		case "allocs_op":
			v, now.AllocsOp = cur.AllocsOp, cur.AllocsOp
		default:
			continue
		}
		if v == nil {
			return old, now, fmt.Errorf("%s: %s records %s but the run has no -benchmem columns", name, blk.key, f.key)
		}
		*edits = append(*edits, edit{f.lo, f.hi, num(*v)})
	}
	return old, now, nil
}

// updateBaseline returns data with, for every benchmark entry that got
// measured and that has an "after" block, each ns_op/bytes_op/allocs_op
// the block already records replaced by the measured value; host_cpus
// replaced by the run's width; and the fields derived from before and
// after (time_reduction_pct, allocs_reduction_pct, speedup_x) recomputed
// where the entry carries them. When gotBefore — a run of the commit the
// change is measured against — also measured the entry and the entry has
// a "before" block, that block is rewritten from it the same way, so
// neither side of a re-registration is typed by hand. It never adds or
// removes a field, so which metrics an entry gates stays a decision made
// in the file.
func updateBaseline(data []byte, got, gotBefore map[string]metrics, w io.Writer) ([]byte, int, error) {
	top, err := children(data, 0, len(data))
	if err != nil {
		return nil, 0, err
	}
	list := find(top, "benchmarks")
	if list == nil {
		return nil, 0, fmt.Errorf("no \"benchmarks\" array")
	}
	entries, err := children(data, list.lo, list.hi)
	if err != nil {
		return nil, 0, err
	}
	var edits []edit
	updated := 0
	for _, ent := range entries {
		ms, err := children(data, ent.lo, ent.hi)
		if err != nil {
			return nil, 0, err
		}
		nm, after := find(ms, "name"), find(ms, "after")
		if nm == nil || after == nil {
			continue
		}
		var name string
		if err := json.Unmarshal(data[nm.lo:nm.hi], &name); err != nil {
			return nil, 0, err
		}
		cur, ok := got[name]
		if !ok {
			fmt.Fprintf(w, "skip   %-42s not in this run\n", name)
			continue
		}
		old, now, err := rewriteBlock(data, name, after, cur, true, &edits)
		if err != nil {
			return nil, 0, err
		}
		if hc := find(ms, "host_cpus"); hc != nil {
			width := cur.width
			if width == 0 {
				width = 1 // go test omits the suffix at GOMAXPROCS=1
			}
			edits = append(edits, edit{hc.lo, hc.hi, strconv.Itoa(width)})
		}
		var wasBefore, before metrics
		parent, reran := gotBefore[name]
		if b := find(ms, "before"); b != nil {
			if wasBefore, before, err = rewriteBlock(data, name, b, parent, reran, &edits); err != nil {
				return nil, 0, err
			}
		} else {
			reran = false
		}
		for _, d := range []struct {
			key      string
			from, to *float64
			speedup  bool
		}{
			{"time_reduction_pct", before.NsOp, now.NsOp, false},
			{"allocs_reduction_pct", before.AllocsOp, now.AllocsOp, false},
			{"speedup_x", before.NsOp, now.NsOp, true},
		} {
			f := find(ms, d.key)
			if f == nil {
				continue
			}
			if d.from == nil || d.to == nil || *d.from == 0 || *d.to == 0 {
				return nil, 0, fmt.Errorf("%s: %s cannot be recomputed: before or after lacks the metric", name, d.key)
			}
			text := tenth((1 - *d.to / *d.from) * 100)
			if d.speedup {
				text = tenth(*d.from / *d.to)
			}
			edits = append(edits, edit{f.lo, f.hi, text})
		}
		fmt.Fprintf(w, "update %-42s ns/op %s -> %s\n", name, show(old.NsOp), show(now.NsOp))
		if reran {
			fmt.Fprintf(w, "before %-42s ns/op %s -> %s\n", name, show(wasBefore.NsOp), show(before.NsOp))
		}
		updated++
	}
	sort.Slice(edits, func(i, j int) bool { return edits[i].lo < edits[j].lo })
	var out bytes.Buffer
	pos := 0
	for _, e := range edits {
		out.Write(data[pos:e.lo])
		out.WriteString(e.text)
		pos = e.hi
	}
	out.Write(data[pos:])
	return out.Bytes(), updated, nil
}

func show(v *float64) string {
	if v == nil {
		return "-"
	}
	return num(*v)
}

// update is the -update mode: rewrite each baseline file in place from
// the benchmark output and, when beforeOut is not nil, from the output of
// the same benchmarks at the commit the change is measured against.
func update(benchOut, beforeOut io.Reader, baselineFiles []string, w io.Writer) error {
	got, err := parseBench(benchOut)
	if err != nil {
		return fmt.Errorf("reading benchmark output: %w", err)
	}
	var gotBefore map[string]metrics
	if beforeOut != nil {
		if gotBefore, err = parseBench(beforeOut); err != nil {
			return fmt.Errorf("reading the -before benchmark output: %w", err)
		}
	}
	total := 0
	for _, file := range baselineFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		out, n, err := updateBaseline(data, got, gotBefore, w)
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		if n > 0 {
			if err := os.WriteFile(file, out, 0o644); err != nil {
				return err
			}
		}
		total += n
	}
	fmt.Fprintf(w, "benchgate: %d entries updated\n", total)
	if total == 0 {
		return fmt.Errorf("no benchmark matched any baseline entry")
	}
	return nil
}
