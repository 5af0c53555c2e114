package server

// Internal test helpers for the external merge tests.
var (
	WriteBothWays   = writeBothWays
	LegacyDirs      = legacyDirs
	RichFingerprint = richFingerprint
	FrameRecords    = frameRecords
	UpgradeFile     = upgradeFile
)
