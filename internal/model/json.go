package model

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// instanceJSON is the on-disk form of an Instance, kept separate from
// the in-memory type so the wire format can stay stable.
type instanceJSON struct {
	M     int    `json:"m"`
	Tasks []Task `json:"tasks"`
}

// WriteJSON encodes the instance to w with indentation.
func (in *Instance) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(instanceJSON{M: in.M, Tasks: in.Tasks})
}

// ReadInstanceJSON decodes an instance from r and validates it. It is
// the reference decoder: ParseInstanceJSON accepts a subset of its
// inputs and must agree with it on every one of them.
func ReadInstanceJSON(r io.Reader) (*Instance, error) {
	var ij instanceJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ij); err != nil {
		return nil, fmt.Errorf("model: decoding instance: %w", err)
	}
	return decodedInstance(ij.M, ij.Tasks)
}

// decodedInstance is the tail both decoders share. It accepts files
// with implicit IDs (all zero) by renumbering them sequentially; any
// nonzero ID makes the file explicit, and Validate then holds every ID
// to its index.
func decodedInstance(m int, tasks []Task) (*Instance, error) {
	in := &Instance{M: m, Tasks: tasks}
	implicit := true
	for _, t := range in.Tasks {
		if t.ID != 0 {
			implicit = false
			break
		}
	}
	if implicit {
		for i := range in.Tasks {
			in.Tasks[i].ID = i
		}
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// ParseInstanceJSON is a single-pass parser for the canonical instance
// document {"m":…,"tasks":[{"p":…,"s":…[,"id":…]},…]}, the form every
// encoder in this repository writes. It accepts only lowercase,
// unescaped keys from that set, integer literals that fit their field,
// no duplicate key and nothing after the document but whitespace; the
// result then passes the same implicit-ID rule and Validate as
// ReadInstanceJSON. Anything else — other keys, escapes, floats,
// overflow, malformed JSON, an invalid instance — reports ok = false,
// and the caller falls back to ReadInstanceJSON, which stays the only
// producer of error text. On every document it accepts, it returns
// what ReadInstanceJSON returns.
func ParseInstanceJSON(data []byte) (*Instance, bool) {
	// A task DAG's "edges" key follows its tasks; a canonical document
	// holds no string but its keys, so decline DAGs before parsing them.
	if bytes.Contains(data, []byte(`"edges"`)) {
		return nil, false
	}
	sc := scanner{b: data}
	var m int64
	var tasks []Task
	var seenM, seenTasks bool
	ok := sc.object(func(key []byte) bool {
		var ok bool
		switch {
		case string(key) == "m" && !seenM:
			seenM = true
			m, ok = sc.integer()
			ok = ok && int64(int(m)) == m
		case string(key) == "tasks" && !seenTasks:
			seenTasks = true
			tasks, ok = sc.tasks()
		}
		return ok
	})
	if !ok || !sc.atEnd() {
		return nil, false
	}
	in, err := decodedInstance(int(m), tasks)
	return in, err == nil
}

// scanner is ParseInstanceJSON's cursor over the document.
type scanner struct {
	b []byte
	i int
}

// peek skips JSON whitespace and returns the next byte, 0 at the end.
func (sc *scanner) peek() byte {
	for ; sc.i < len(sc.b); sc.i++ {
		switch c := sc.b[sc.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat consumes c, after whitespace, if it is the next byte.
func (sc *scanner) eat(c byte) bool {
	if sc.peek() != c {
		return false
	}
	sc.i++
	return true
}

// atEnd reports whether only whitespace is left.
func (sc *scanner) atEnd() bool {
	sc.peek()
	return sc.i == len(sc.b)
}

// object parses one object, handing each key — after its colon — to
// member, which must consume the value and may refuse the key.
func (sc *scanner) object(member func(key []byte) bool) bool {
	if !sc.eat('{') {
		return false
	}
	if sc.eat('}') {
		return true
	}
	for {
		if !sc.eat('"') {
			return false
		}
		start := sc.i
		for sc.i < len(sc.b) && 'a' <= sc.b[sc.i] && sc.b[sc.i] <= 'z' {
			sc.i++
		}
		if sc.i == len(sc.b) || sc.b[sc.i] != '"' {
			return false
		}
		key := sc.b[start:sc.i]
		sc.i++
		if !sc.eat(':') || !member(key) {
			return false
		}
		if sc.eat('}') {
			return true
		}
		if !sc.eat(',') {
			return false
		}
	}
}

// tasks parses the task array. As with encoding/json, null yields a
// nil slice and an empty array an empty, non-nil one.
func (sc *scanner) tasks() ([]Task, bool) {
	if sc.peek() == 'n' && bytes.HasPrefix(sc.b[sc.i:], []byte("null")) {
		sc.i += len("null")
		return nil, true
	}
	if !sc.eat('[') {
		return nil, false
	}
	// Grown by append, as encoding/json does, so a document this parser
	// later declines costs memory in proportion to its tasks only.
	tasks := []Task{}
	if sc.eat(']') {
		return tasks, true
	}
	for {
		var t Task
		var seenID, seenP, seenS bool
		ok := sc.object(func(key []byte) bool {
			var ok bool
			switch {
			case string(key) == "id" && !seenID:
				seenID = true
				var id int64
				id, ok = sc.integer()
				t.ID = int(id)
				ok = ok && int64(t.ID) == id
			case string(key) == "p" && !seenP:
				seenP = true
				t.P, ok = sc.integer()
			case string(key) == "s" && !seenS:
				seenS = true
				t.S, ok = sc.integer()
			}
			return ok
		})
		if !ok {
			return nil, false
		}
		tasks = append(tasks, t)
		if sc.eat(']') {
			return tasks, true
		}
		if !sc.eat(',') {
			return nil, false
		}
	}
}

// integer parses a JSON number that is an integer literal,
// -?(0|[1-9][0-9]*), within ±(2^63−1). A fraction or exponent, a
// leading zero and overflow all refuse.
func (sc *scanner) integer() (int64, bool) {
	neg := sc.eat('-')
	start := sc.i
	var v int64
	for ; sc.i < len(sc.b) && '0' <= sc.b[sc.i] && sc.b[sc.i] <= '9'; sc.i++ {
		d := int64(sc.b[sc.i] - '0')
		if v > (math.MaxInt64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	digits := sc.i - start
	if digits == 0 || (digits > 1 && sc.b[start] == '0') {
		return 0, false
	}
	if sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	if neg {
		v = -v
	}
	return v, true
}

// scheduleJSON is the on-disk form of a Schedule.
type scheduleJSON struct {
	M     int    `json:"m"`
	Proc  []int  `json:"proc"`
	Start []Time `json:"start"`
	P     []Time `json:"p"`
	S     []Mem  `json:"s"`
}

// WriteJSON encodes the schedule to w with indentation.
func (sc *Schedule) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(scheduleJSON{M: sc.M, Proc: sc.Proc, Start: sc.Start, P: sc.P, S: sc.S})
}

// ReadScheduleJSON decodes a schedule from r.
func ReadScheduleJSON(r io.Reader) (*Schedule, error) {
	var sj scheduleJSON
	if err := json.NewDecoder(r).Decode(&sj); err != nil {
		return nil, fmt.Errorf("model: decoding schedule: %w", err)
	}
	return &Schedule{M: sj.M, Proc: sj.Proc, Start: sj.Start, P: sj.P, S: sj.S}, nil
}
