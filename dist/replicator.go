package dist

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mogul"
)

// LogSource is where a follower tails a primary's mutation log from —
// a *Client against the primary's shard server, or the primary engine
// itself in tests (see indexSource).
type LogSource interface {
	// LogEntries returns the entries logged after the cursor, oldest
	// first. ok=false means the log was truncated past the cursor and
	// the follower must bootstrap from a snapshot.
	LogEntries(ctx context.Context, since uint64) ([]mogul.LogEntry, bool, error)
}

// indexSource adapts an in-process primary to LogSource.
type indexSource struct{ ix ShardIndex }

func (s indexSource) LogEntries(ctx context.Context, since uint64) ([]mogul.LogEntry, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	entries, ok := s.ix.EntriesSince(since)
	return entries, ok, nil
}

// IndexSource wraps an in-process primary engine as a LogSource.
func IndexSource(ix ShardIndex) LogSource { return indexSource{ix} }

// ErrLogTruncated reports that the primary's log no longer reaches
// back to the follower's cursor: the follower fell too far behind (or
// the primary restarted from a snapshot) and must re-bootstrap from a
// fresh snapshot (Client.Snapshot + NewReplicatorAt).
var ErrLogTruncated = errors.New("dist: primary log truncated past the follower's cursor")

// Replicator converges a follower engine (any ShardIndex, of the
// primary's kind and recipe) onto a primary by tailing the primary's
// Insert/Delete/Compact delta log. Because every engine's build
// pipeline is deterministic, replaying the primary's mutations in log
// order reproduces the primary's state bit for bit: after CatchUp the
// follower ranks identically to the primary at the same version.
//
// The cursor is the primary's Version() stamp of the last applied
// entry. The follower's own Version() generally differs (a follower
// bootstrapped from a snapshot restarts at 1), so the replicator
// tracks the cursor separately and maintains the constant offset
// between the two counters; the offset is also what lets it verify
// id parity on replayed inserts.
type Replicator struct {
	src      LogSource
	follower ShardIndex

	// cursor is the primary Version() through which the follower is
	// converged.
	cursor uint64
	// offset is primaryVersion − followerVersion, constant across
	// replay because every logged mutation bumps both counters by one
	// (a replayed no-op Compact logs on the primary only when it
	// actually compacted, in which case it compacts on the follower
	// too — see apply).
	offset uint64
}

// NewReplicator tails src into follower, assuming the follower is a
// bit-identical copy of the primary as of the primary version cursor
// — e.g. both were just built from the same points (cursor = 1), or
// the follower loaded a snapshot taken at that version.
func NewReplicator(src LogSource, follower ShardIndex, cursor uint64) *Replicator {
	return &Replicator{
		src:      src,
		follower: follower,
		cursor:   cursor,
		offset:   cursor - follower.Version(),
	}
}

// Bootstrap fetches a consistent snapshot from the primary's shard
// server and returns a replicator converged through the snapshot's
// version — the recovery path after ErrLogTruncated.
func Bootstrap(ctx context.Context, c *Client) (*Replicator, ShardIndex, error) {
	ix, ver, err := c.Snapshot(ctx)
	if err != nil {
		return nil, nil, err
	}
	return NewReplicator(c, ix, ver), ix, nil
}

// Cursor returns the primary Version() the follower is converged
// through.
func (r *Replicator) Cursor() uint64 { return r.cursor }

// CatchUp drains the primary's log until the follower is fully caught
// up, returning the number of entries applied. ErrLogTruncated means
// the follower must re-bootstrap from a snapshot.
func (r *Replicator) CatchUp(ctx context.Context) (int, error) {
	applied := 0
	for {
		entries, ok, err := r.src.LogEntries(ctx, r.cursor)
		if err != nil {
			return applied, err
		}
		if !ok {
			return applied, fmt.Errorf("%w (cursor %d)", ErrLogTruncated, r.cursor)
		}
		if len(entries) == 0 {
			return applied, nil
		}
		for _, e := range entries {
			if err := r.apply(e); err != nil {
				return applied, err
			}
			applied++
		}
	}
}

// Run tails the log until ctx ends, polling at interval; transient
// source errors are retried on the next tick. ErrLogTruncated stops
// the loop — the follower needs a snapshot, not more polling.
func (r *Replicator) Run(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		if _, err := r.CatchUp(ctx); err != nil {
			if errors.Is(err, ErrLogTruncated) || ctx.Err() != nil {
				return err
			}
			// Transient (shard unreachable mid-poll): retry next tick.
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// apply replays one primary log entry onto the follower.
//
// Insert id parity: the primary logs the id its insert returned
// *before* any auto-compaction renumbering, inside the same lock that
// stamped the version — so whenever the follower's version aligns
// with the entry's (entry.Version − offset == followerVersion + 1 at
// apply time), the follower's insert must hand back the same id. The
// follower mirrors the primary's auto-compaction decision (same
// option, same state) after an insert or a delete, so the counters stay
// locked in step: a primary-side auto-compact appears in the log as an
// OpCompact whose replay finds the follower already compacted.
func (r *Replicator) apply(e mogul.LogEntry) error {
	if e.Version <= r.cursor {
		return nil // already applied (an overlapping tail)
	}
	if e.Version != r.cursor+1 {
		return fmt.Errorf("dist: log gap: cursor %d, next entry version %d", r.cursor, e.Version)
	}
	expectFollower := e.Version - r.offset
	switch e.Op {
	case mogul.OpInsert:
		id, err := r.follower.Insert(e.Vector)
		if err != nil {
			return fmt.Errorf("dist: replaying insert (primary version %d): %w", e.Version, err)
		}
		if r.follower.Version() == expectFollower && id != e.ID {
			return fmt.Errorf("dist: replay diverged: insert at primary version %d returned id %d on the follower, primary logged %d", e.Version, id, e.ID)
		}
	case mogul.OpDelete:
		if err := r.follower.Delete(e.ID); err != nil {
			return fmt.Errorf("dist: replaying delete of %d (primary version %d): %w", e.ID, e.Version, err)
		}
	case mogul.OpCompact:
		if err := r.follower.Compact(); err != nil {
			return fmt.Errorf("dist: replaying compact (primary version %d): %w", e.Version, err)
		}
	default:
		return fmt.Errorf("dist: unknown log op %d at primary version %d", e.Op, e.Version)
	}
	r.cursor = e.Version
	// After a replayed insert or delete the follower may sit one version
	// ahead: its own auto-compaction fired, and the primary's matching
	// OpCompact (the next log entry) replays as a version-neutral
	// no-op, re-aligning the counters. Anything else is divergence.
	got := r.follower.Version()
	if got != expectFollower && !(e.Op != mogul.OpCompact && got == expectFollower+1) {
		return fmt.Errorf("dist: replay diverged: follower at version %d after primary version %d (expected %d)", got, e.Version, expectFollower)
	}
	return nil
}
