//go:build dyrs_wakecheck

package migration

// wakeCheck: see wakecheck.go. Under the dyrs_wakecheck build tag every
// skip the awake set makes is checked by visiting the skipped slave.
const wakeCheck = true
