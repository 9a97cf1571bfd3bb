package serve

// Decoding item streams. Both front ends accept the same documents —
// an instance {"m","tasks"}, a task DAG {"m","tasks","edges"} (the
// presence of "edges", even empty, selects the DAG kind), or an
// envelope {"source": "...", "item": {...}} naming its payload — and
// the same two stream shapes: a stream of concatenated JSON values
// (compact JSONL and indented documents alike) and a line-oriented
// JSONL file where each bad line fails alone.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"strings"

	"storagesched/internal/dag"
	"storagesched/internal/engine"
	"storagesched/internal/model"
)

// itemProbe sniffs a document's top-level keys to classify it without
// committing to a decode: an envelope carries "item", a graph carries
// "edges", anything else decodes as an instance.
type itemProbe struct {
	Source *string         `json:"source"`
	Item   json.RawMessage `json:"item"`
	Edges  json.RawMessage `json:"edges"`
}

// decodeOne turns one raw document into a batch item and its source
// label; source is the default label used when the document is not an
// envelope (or is one without a "source"). A canonical instance
// document takes model.ParseInstanceJSON's single pass; everything
// else, and every error, goes through decodeReference.
func decodeOne(raw json.RawMessage, source string) (engine.BatchItem, string) {
	if in, ok := model.ParseInstanceJSON(raw); ok {
		return engine.BatchItem{Instance: in}, source
	}
	return decodeReference(raw, source)
}

// decodeReference is the encoding/json decode path: probe the
// document's kind, then decode it with that kind's reader.
func decodeReference(raw json.RawMessage, source string) (engine.BatchItem, string) {
	var probe itemProbe
	// A non-object document (array, number) fails below in the kind
	// decoder with its real error; the probe only classifies.
	probeErr := json.Unmarshal(raw, &probe)
	if probe.Item != nil {
		if probe.Source != nil && *probe.Source != "" {
			source = *probe.Source
		}
		raw = probe.Item
		probe = itemProbe{}
		_ = json.Unmarshal(raw, &probe)
	}
	item := engine.BatchItem{}
	if probe.Edges != nil {
		g, err := dag.ReadGraphJSON(bytes.NewReader(raw))
		if err != nil {
			item.Err = fmt.Errorf("%s: %w", source, err)
		} else {
			item.Graph = g
		}
	} else {
		in, err := model.ReadInstanceJSON(bytes.NewReader(raw))
		if err != nil {
			item.Err = fmt.Errorf("%s: %w", source, err)
		} else {
			item.Instance = in
		}
	}
	// The kind decoders read one value and stop, so a document they
	// accept but the probe finds malformed has data after it: report
	// that instead of sweeping the first value and dropping the rest.
	var syntax *json.SyntaxError
	if item.Err == nil && errors.As(probeErr, &syntax) {
		return engine.BatchItem{Err: fmt.Errorf("%s: %w", source, probeErr)}, source
	}
	return item, source
}

// DecodeItems yields one item per JSON document decoded from r —
// accepting compact JSONL, indented multi-line documents and envelopes
// alike — labelling them "label:1", "label:2", ... unless an envelope
// names its own source. c, when non-nil, is closed once the stream is
// drained. A malformed document poisons the rest of the stream (there
// is no line boundary to resynchronize on), so it is reported once as
// a final error item and the stream ends; a document that parses but
// fails item validation rides its error on the item and fails alone.
func DecodeItems(label string, r io.Reader, c io.Closer) iter.Seq2[engine.BatchItem, string] {
	return func(yield func(engine.BatchItem, string) bool) {
		if c != nil {
			defer c.Close()
		}
		dec := json.NewDecoder(r)
		for k := 1; ; k++ {
			var raw json.RawMessage
			if err := dec.Decode(&raw); err != nil {
				if err != io.EOF {
					yield(engine.BatchItem{Err: fmt.Errorf("%s value %d: %w", label, k, err)},
						fmt.Sprintf("%s:%d", label, k))
				}
				return
			}
			item, source := decodeOne(raw, fmt.Sprintf("%s:%d", label, k))
			if !yield(item, source) {
				return
			}
		}
	}
}

// DecodeJSONLItems yields one item per non-empty line of r, closing c
// (when non-nil) once the stream is drained. Unlike DecodeItems, a bad
// line fails alone — the line boundary resynchronizes the stream — and
// the remaining lines still sweep.
func DecodeJSONLItems(label string, r io.Reader, c io.Closer) iter.Seq2[engine.BatchItem, string] {
	return func(yield func(engine.BatchItem, string) bool) {
		if c != nil {
			defer c.Close()
		}
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			text := strings.TrimSpace(sc.Text())
			if text == "" {
				continue
			}
			item, source := decodeOne(json.RawMessage(text), fmt.Sprintf("%s:%d", label, lineNo))
			if !yield(item, source) {
				return
			}
		}
		if err := sc.Err(); err != nil {
			yield(engine.BatchItem{Err: fmt.Errorf("%s: %w", label, err)}, label)
		}
	}
}
