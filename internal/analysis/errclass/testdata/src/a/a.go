// Package a models the cluster coordinator's error contract for the
// errclass analyzer tests: a ShardError type, a classify helper, a
// shard-clean exec, and gather-shaped callers that do and do not honor
// the boundary.
package a

import (
	"errors"
	"fmt"
)

type ShardError struct {
	Shard     string
	Msg       string
	Retriable bool
}

func (e *ShardError) Error() string { return e.Shard + ": " + e.Msg }

var errUnavailable = errors.New("a: unavailable")

func classify(shard string, err error) *ShardError {
	return &ShardError{Shard: shard, Msg: err.Error()}
}

type Coordinator struct{}

func (c *Coordinator) post(shard string) ([]byte, error) { return nil, nil }

// exec is shard-clean: every error it returns is classified.
func (c *Coordinator) exec(shard string) ([]byte, error) {
	b, err := c.post(shard)
	if err != nil {
		return nil, classify(shard, err)
	}
	return b, nil
}

// decodeInto returns naked errors; it is not a boundary function itself
// (no shard-typed return), but its summary taints boundary callers.
func decodeInto(b []byte) error {
	if len(b) == 0 {
		return fmt.Errorf("a: empty response")
	}
	return nil
}

// ---- negative cases ----

// goodGather wraps the decode failure before it crosses the boundary.
func (c *Coordinator) goodGather(shards []string) error {
	for _, s := range shards {
		b, err := c.exec(s)
		if err != nil {
			return err
		}
		if derr := decodeInto(b); derr != nil {
			return classify(s, derr)
		}
	}
	return nil
}

// goodForward forwards a shard-clean callee's results wholesale.
func (c *Coordinator) goodForward(shard string) ([]byte, error) {
	return c.exec(shard)
}

// goodValidation deliberately maps a bad request to a plain error (400,
// not a shard 502); the escape carries its justification.
func (c *Coordinator) goodValidation(kind, shard string) error {
	if kind != "join" && kind != "query" {
		//xrvet:errclass-ok request validation must map to 400, not a shard 502
		return fmt.Errorf("a: unknown request kind %q", kind)
	}
	_, err := c.exec(shard)
	return err
}

// plumbing has no shard-typed return: out of contract, callers wrap.
func plumbing(addr string) error {
	if addr == "" {
		return errors.New("a: empty address")
	}
	return nil
}

// ---- positive cases ----

// badGather's task closure hands decodeInto's naked error straight
// across the boundary — the shape of the real coordinator bug.
func (c *Coordinator) badGather(shards []string) []func() error {
	var tasks []func() error
	for _, s := range shards {
		s := s
		tasks = append(tasks, func() error {
			b, err := c.exec(s)
			if err != nil {
				return err
			}
			return decodeInto(b) // want `error crossing the shard boundary is not a \*ShardError`
		})
	}
	return tasks
}

// badVar launders the naked constructor through a local variable.
func (c *Coordinator) badVar(shard string) error {
	if shard == "" {
		return &ShardError{Shard: shard, Msg: "no shard"}
	}
	err := errors.New("a: raw failure")
	return err // want `error crossing the shard boundary is not a \*ShardError`
}

// badWrap: fmt.Errorf-wrapping a ShardError still hides the type from
// errors.As-free switches on the boundary.
func (c *Coordinator) badWrap(shard string) error {
	_, err := c.exec(shard)
	if err != nil {
		return fmt.Errorf("a: shard %s: %w", shard, err) // want `error crossing the shard boundary is not a \*ShardError`
	}
	return classify(shard, errUnavailable)
}

// badBare carries an escape with no justification: rejected.
func (c *Coordinator) badBare(shard string) error {
	if shard == "" {
		//xrvet:errclass-ok
		return errors.New("a: missing shard") // want `bare //xrvet:errclass-ok escape: add a justification`
	}
	return classify(shard, errUnavailable)
}

// badDeepChain precedes naked5..naked1, a naked-error helper chain
// declared outermost first, so each round of summaries resolves one more
// level of it.
func (c *Coordinator) badDeepChain(shard string) error {
	if _, err := c.exec(shard); err != nil {
		return err
	}
	return naked5() // want `error crossing the shard boundary is not a \*ShardError`
}

func naked5() error { return naked4() }
func naked4() error { return naked3() }
func naked3() error { return naked2() }
func naked2() error { return naked1() }
func naked1() error { return fmt.Errorf("a: deep") }
