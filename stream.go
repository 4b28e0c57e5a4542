package disc

import "fmt"

// Stream maintains an r-DisC diverse subset of a changing object stream —
// the online version of the problem the paper lists as future work.
// Objects are added one at a time and may later be removed; after every
// operation the representative set is a valid r-DisC diverse subset of
// the live objects.
//
// A Stream is an Updater that flushes after every operation: each call
// patches the coverage adjacency, repairs only the part of the greedy
// run it changes and converges immediately, so the representative set after each call
// is exactly what a from-scratch coverage-graph Select over the live
// objects would choose, under every metric. Callers that want to batch
// mutations and control convergence themselves should use Updater
// directly.
//
// A Stream is not safe for concurrent use.
type Stream struct {
	u *Updater
}

type streamOptions struct {
	metric Metric
}

// StreamOption configures NewStream.
type StreamOption func(*streamOptions) error

// StreamMetric sets the distance function (default Euclidean).
func StreamMetric(m Metric) StreamOption {
	return func(o *streamOptions) error {
		if m == nil {
			return fmt.Errorf("disc: nil metric")
		}
		o.metric = m
		return nil
	}
}

// NewStream creates an empty online maintainer for radius r.
func NewStream(r float64, opts ...StreamOption) (*Stream, error) {
	o := streamOptions{metric: Euclidean()}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	u, err := NewUpdater(nil, r, WithMetric(o.metric))
	if err != nil {
		return nil, err
	}
	return &Stream{u: u}, nil
}

// Add indexes a new object, returning its assigned id and whether it
// became a representative.
func (s *Stream) Add(p Point) (id int, selected bool, err error) {
	id, err = s.u.Insert(p)
	if err != nil {
		return 0, false, err
	}
	s.u.Flush()
	return id, s.u.IsRepresentative(id), nil
}

// Remove retracts a previously added object; retracting a representative
// repairs coverage locally.
func (s *Stream) Remove(id int) error {
	if err := s.u.Delete(id); err != nil {
		return err
	}
	s.u.Flush()
	return nil
}

// Radius returns the maintained diversification radius.
func (s *Stream) Radius() float64 { return s.u.Radius() }

// Len returns the number of live objects.
func (s *Stream) Len() int { return s.u.Len() }

// Size returns the number of current representatives.
func (s *Stream) Size() int { return s.u.Size() }

// Representatives returns the current representative ids in ascending
// order.
func (s *Stream) Representatives() []int {
	return append([]int(nil), s.u.Selection()...)
}

// IsRepresentative reports whether live object id is currently selected.
func (s *Stream) IsRepresentative(id int) bool { return s.u.IsRepresentative(id) }

// Point returns the coordinates of object id (including retracted ones).
func (s *Stream) Point(id int) Point { return s.u.Point(id) }

// Accesses returns the cumulative objects-examined count across
// neighbourhood queries and repairs.
func (s *Stream) Accesses() int64 { return s.u.Accesses() }

// Verify checks the DisC invariants over the live objects by direct
// distance computation (O(n·|S|); for tests and debugging).
func (s *Stream) Verify() error { return s.u.Verify() }
