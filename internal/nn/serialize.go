package nn

import (
	"encoding/json"
	"fmt"
)

// Snapshot is a serializable copy of a set of parameters, keyed by a
// caller-chosen name. It is the unit of transfer learning (§3.3): a DTM
// trained on one application is snapshotted and restored to warm-start the
// search for another.
type Snapshot struct {
	// Meta carries caller-defined metadata (source application, feature
	// dimension, training iterations) so a restore can sanity-check
	// compatibility.
	Meta map[string]string `json:"meta,omitempty"`
	// Tensors maps names to flat weight vectors.
	Tensors map[string][]float64 `json:"tensors"`
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{Meta: map[string]string{}, Tensors: map[string][]float64{}}
}

// Save copies the parameters into the snapshot under the given names.
// Names and params must align.
func (s *Snapshot) Save(names []string, params []*Param) error {
	if len(names) != len(params) {
		return fmt.Errorf("nn: %d names for %d params", len(names), len(params))
	}
	for i, p := range params {
		s.Tensors[names[i]] = append([]float64(nil), p.W...)
	}
	return nil
}

// Restore copies snapshot weights back into the parameters. Every name must
// be present with the right length; on error no parameter is changed.
func (s *Snapshot) Restore(names []string, params []*Param) error {
	if len(names) != len(params) {
		return fmt.Errorf("nn: %d names for %d params", len(names), len(params))
	}
	for i, p := range params {
		w, ok := s.Tensors[names[i]]
		if !ok {
			return fmt.Errorf("nn: snapshot missing tensor %q", names[i])
		}
		if len(w) != len(p.W) {
			return fmt.Errorf("nn: tensor %q has %d weights, parameter wants %d",
				names[i], len(w), len(p.W))
		}
	}
	for i, p := range params {
		copy(p.W, s.Tensors[names[i]])
	}
	return nil
}

// Encode serializes the snapshot to JSON bytes.
func (s *Snapshot) Encode() ([]byte, error) { return json.Marshal(s) }

// DecodeSnapshot parses a snapshot from JSON bytes.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("nn: decoding snapshot: %w", err)
	}
	if s.Tensors == nil {
		s.Tensors = map[string][]float64{}
	}
	if s.Meta == nil {
		s.Meta = map[string]string{}
	}
	return &s, nil
}
