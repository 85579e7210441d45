//go:build !dyrs_wakecheck

package migration

// wakeCheck turns on the skip oracle when the build tag dyrs_wakecheck
// is set: every heartbeat round then also visits the slaves the awake
// set skips, and every Migrate RPC the slaves the ready set skips, and
// panics if a visit changed anything on one of them, which would mean a
// missing wake or ready bit (awake.go); every Algorithm 1 pass re-reads
// every node's view and panics if the kept view differs, which would
// mean a missing stale mark (PolicyBinder.beginPass). The wakecheck
// tests in this package plant such bugs to show the oracle catches
// them. Normal builds compile the constant to false and the oracle away
// entirely.
const wakeCheck = false
