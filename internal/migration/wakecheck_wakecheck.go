//go:build dyrs_wakecheck

package migration

// wakeCheck: see wakecheck.go. Under the dyrs_wakecheck build tag every
// skip the awake and ready sets make is checked by visiting the skipped
// slave, and every kept node view by re-reading it.
const wakeCheck = true
