// Package trace models user sessions on the visual query interface: the
// timestamped stream of atomic query-part edits (Section 2 of the paper)
// ending in GO events, a JSON codec for recording and replaying traces, a
// synthetic session generator fitted to the user statistics of Section 5,
// and corpus statistics used by the T5.x experiments.
package trace

import (
	"encoding/json"
	"fmt"

	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/tuple"
)

// EventKind enumerates visual-interface actions.
type EventKind string

// Event kinds. AddSelection/AddJoin implicitly add their relations, exactly
// like placing an annotation in a QBE-style interface does.
const (
	EvAddSelection    EventKind = "add_selection"
	EvRemoveSelection EventKind = "remove_selection"
	EvAddJoin         EventKind = "add_join"
	EvRemoveJoin      EventKind = "remove_join"
	EvAddRelation     EventKind = "add_relation"
	EvRemoveRelation  EventKind = "remove_relation"
	EvSetProjections  EventKind = "set_projections"
	EvClear           EventKind = "clear" // new exploration task: empty canvas
	EvGo              EventKind = "go"
)

// ValueJSON is the wire form of a tuple.Value.
type ValueJSON struct {
	Kind string  `json:"kind"`
	I    int64   `json:"i,omitempty"`
	F    float64 `json:"f,omitempty"`
	S    string  `json:"s,omitempty"`
}

// ToValue decodes the wire form.
func (v ValueJSON) ToValue() (tuple.Value, error) {
	switch v.Kind {
	case "int":
		return tuple.NewInt(v.I), nil
	case "float":
		return tuple.NewFloat(v.F), nil
	case "string":
		return tuple.NewString(v.S), nil
	case "date":
		return tuple.NewDate(v.I), nil
	default:
		return tuple.Value{}, fmt.Errorf("trace: bad value kind %q", v.Kind)
	}
}

// FromValue encodes a tuple.Value.
func FromValue(v tuple.Value) ValueJSON {
	switch v.Kind() {
	case tuple.KindInt:
		return ValueJSON{Kind: "int", I: v.Int()}
	case tuple.KindFloat:
		return ValueJSON{Kind: "float", F: v.Float()}
	case tuple.KindString:
		return ValueJSON{Kind: "string", S: v.Str()}
	case tuple.KindDate:
		return ValueJSON{Kind: "date", I: v.Int()}
	default:
		return ValueJSON{Kind: "invalid"}
	}
}

// SelectionJSON is the wire form of a selection edge.
type SelectionJSON struct {
	Rel   string    `json:"rel"`
	Col   string    `json:"col"`
	Op    string    `json:"op"`
	Const ValueJSON `json:"const"`
}

// ToSelection decodes the wire form.
func (s SelectionJSON) ToSelection() (qgraph.Selection, error) {
	op, ok := tuple.ParseCmpOp(s.Op)
	if !ok {
		return qgraph.Selection{}, fmt.Errorf("trace: bad operator %q", s.Op)
	}
	c, err := s.Const.ToValue()
	if err != nil {
		return qgraph.Selection{}, err
	}
	return qgraph.Selection{Rel: s.Rel, Col: s.Col, Op: op, Const: c}, nil
}

// FromSelection encodes a selection edge.
func FromSelection(s qgraph.Selection) SelectionJSON {
	return SelectionJSON{Rel: s.Rel, Col: s.Col, Op: s.Op.String(), Const: FromValue(s.Const)}
}

// JoinJSON is the wire form of a join edge.
type JoinJSON struct {
	LeftRel  string `json:"lrel"`
	LeftCol  string `json:"lcol"`
	RightRel string `json:"rrel"`
	RightCol string `json:"rcol"`
}

// ToJoin decodes the wire form. Self-joins panic in qgraph.NewJoin; external
// input is screened by Trace.Validate (and sessions by validateJoin) before
// reaching here.
func (j JoinJSON) ToJoin() qgraph.Join {
	return qgraph.NewJoin(j.LeftRel, j.LeftCol, j.RightRel, j.RightCol)
}

// FromJoin encodes a join edge.
func FromJoin(j qgraph.Join) JoinJSON {
	return JoinJSON{LeftRel: j.LeftRel, LeftCol: j.LeftCol, RightRel: j.RightRel, RightCol: j.RightCol}
}

// Event is one timestamped interface action.
type Event struct {
	// AtSeconds is the event time in seconds from the session start.
	AtSeconds float64        `json:"at"`
	Kind      EventKind      `json:"kind"`
	Sel       *SelectionJSON `json:"sel,omitempty"`
	Join      *JoinJSON      `json:"join,omitempty"`
	Rel       string         `json:"rel,omitempty"`
	Projs     []string       `json:"projs,omitempty"`
}

// At reports the event time on the simulated timeline.
func (e Event) At() sim.Time { return sim.FromSeconds(e.AtSeconds) }

// Trace is one recorded user session.
type Trace struct {
	User   string  `json:"user"`
	Seed   uint64  `json:"seed,omitempty"`
	Events []Event `json:"events"`
}

// Encode renders the trace as JSON.
func (t *Trace) Encode() ([]byte, error) { return json.MarshalIndent(t, "", " ") }

// Decode parses a JSON trace and validates it.
func Decode(data []byte) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Validate checks event ordering and payload consistency.
func (t *Trace) Validate() error {
	prev := -1.0
	for i, e := range t.Events {
		if e.AtSeconds < prev {
			return fmt.Errorf("trace: event %d goes back in time (%.3f < %.3f)", i, e.AtSeconds, prev)
		}
		prev = e.AtSeconds
		switch e.Kind {
		case EvAddSelection, EvRemoveSelection:
			if e.Sel == nil {
				return fmt.Errorf("trace: event %d (%s) missing selection", i, e.Kind)
			}
			if _, err := e.Sel.ToSelection(); err != nil {
				return fmt.Errorf("trace: event %d: %w", i, err)
			}
		case EvAddJoin, EvRemoveJoin:
			if e.Join == nil {
				return fmt.Errorf("trace: event %d (%s) missing join", i, e.Kind)
			}
			// Screen here so replaying an externally-authored trace cannot
			// reach qgraph.NewJoin's programmer-invariant panic.
			if e.Join.LeftRel == e.Join.RightRel {
				return fmt.Errorf("trace: event %d joins %q to itself", i, e.Join.LeftRel)
			}
		case EvAddRelation, EvRemoveRelation:
			if e.Rel == "" {
				return fmt.Errorf("trace: event %d (%s) missing relation", i, e.Kind)
			}
		case EvSetProjections, EvClear, EvGo:
		default:
			return fmt.Errorf("trace: event %d has unknown kind %q", i, e.Kind)
		}
	}
	return nil
}

// NumQueries counts GO events.
func (t *Trace) NumQueries() int {
	n := 0
	for _, e := range t.Events {
		if e.Kind == EvGo {
			n++
		}
	}
	return n
}
