package main

import "fmt"

// checker decides whether each operation's output is correct and counts
// the ones that are not. The simulator is deterministic, so the first
// result seen for an input is the reference every later one must equal.
type checker struct {
	refs      map[int]fingerprint // by input index
	attempted int
	failed    int
	firstErr  error
}

func newChecker() *checker {
	return &checker{refs: map[int]fingerprint{}}
}

// check records one operation on input i. It fails when the operation
// returned an error, when its fingerprint differs from the first one seen
// for that input, when it accounts for more tasks than were generated, or
// when it admitted a different number of sessions than were generated.
func (c *checker) check(i int, in *input, out outcome, err error) bool {
	c.attempted++
	why := c.verdict(i, in, out, err)
	if why == nil {
		return true
	}
	c.failed++
	if c.firstErr == nil {
		c.firstErr = why
	}
	return false
}

func (c *checker) verdict(i int, in *input, out outcome, err error) error {
	if err != nil {
		return fmt.Errorf("input %d: %w", i, err)
	}
	fp := out.fp
	if fp.tasks+fp.abandon > in.tasks {
		return fmt.Errorf("input %d: %d tasks + %d abandonments exceed the %d generated", i, fp.tasks, fp.abandon, in.tasks)
	}
	if fp.sessions != in.sessions {
		return fmt.Errorf("input %d: %d sessions admitted, %d generated", i, fp.sessions, in.sessions)
	}
	ref, seen := c.refs[i]
	if !seen {
		c.refs[i] = fp
		return nil
	}
	if fp != ref {
		return fmt.Errorf("input %d: result differs from the first run of the same input:\n got  %+v\n want %+v", i, fp, ref)
	}
	return nil
}
