//go:build !dyrs_wakecheck

package migration

// wakeCheck turns on the skip oracle when the build tag dyrs_wakecheck
// is set: every heartbeat round and Migrate RPC then also visits the
// slaves the awake set skips, and panics if a visit changed anything on
// one of them, which would mean a missing wake (awake.go). The
// wakecheck tests in this package plant such a bug to show the oracle
// catches it. Normal builds compile the constant to false and the
// oracle away entirely.
const wakeCheck = false
