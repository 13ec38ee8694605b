package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one job (or one serving
// op) share id; parent is the index of the enclosing span, -1 at the root.
type span struct {
	name   string
	id     int64
	parent int32
	start  time.Duration // since the recorder's epoch
	end    time.Duration
}

// recorder keeps spans in memory. A disabled recorder times nothing, so the
// same replay code serves as the untraced baseline for the overhead figure.
// Spans past limit are still timed and aggregated but not kept for the
// dump, which bounds memory.
type recorder struct {
	on    bool
	epoch time.Time
	limit int
	spans []span
	// durs collects every finished span's duration by name.
	durs map[string][]float64
}

func newRecorder(on bool, limit int) *recorder {
	return &recorder{on: on, epoch: time.Now(), limit: limit, durs: map[string][]float64{}}
}

// begin opens a span and returns its handle for end.
func (r *recorder) begin(name string, id int64, parent int32) int32 {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{name: name, id: id, parent: parent, start: time.Since(r.epoch)})
	return int32(len(r.spans) - 1)
}

// end closes the span and returns its duration.
func (r *recorder) end(h int32) time.Duration {
	if h < 0 {
		return 0
	}
	s := &r.spans[h]
	s.end = time.Since(r.epoch)
	d := s.end - s.start
	r.durs[s.name] = append(r.durs[s.name], float64(d))
	return d
}

// trim drops spans past the keep limit once no span is open.
func (r *recorder) trim() {
	if len(r.spans) > r.limit {
		r.spans = r.spans[:r.limit]
	}
}

// total returns the summed duration of the named spans.
func (r *recorder) total(name string) time.Duration {
	return time.Duration(sum(r.durs[name]))
}

// pct returns the q-quantile of the named spans' durations, in unit.
func (r *recorder) pct(name string, q float64, unit time.Duration) float64 {
	xs := append([]float64(nil), r.durs[name]...)
	return percentile(xs, q) / float64(unit)
}

func (r *recorder) count(name string) int { return len(r.durs[name]) }

// dump writes the kept spans as tab-separated lines: name, id, parent
// index, start ns, end ns.
func (r *recorder) dump(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tparent\tstart_ns\tend_ns")
	for _, s := range r.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.id, s.parent, int64(s.start), int64(s.end))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
