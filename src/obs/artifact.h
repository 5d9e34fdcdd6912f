// Unified artifact directory + self-describing dump stamping.
//
// Every failure path (chaos output diffs, membership post-mortems, kept
// record/replay bundles) lands its triage files in the one directory named
// by SJOIN_ARTIFACT_DIR, which CI uploads; ArtifactDir() reads it.
//
// WriteArtifact additionally stamps every dump so artifacts are
// self-describing: text artifacts get a `# sjoin-artifact ...` comment
// header (schema version, kind, name, run-config summary) prepended;
// machine-parsed formats (.json, .sjrec) are written byte-exact with the
// same header in a `<name>.meta` sidecar, so consumers like trace_check and
// sjoin_replay keep working on the artifact file itself.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sjoin::obs {

inline constexpr std::uint32_t kArtifactSchemaVersion = 1;

enum class ArtifactKind {
  kChaos,       ///< chaos-harness differential failures
  kMembership,  ///< elastic-membership post-mortems
  kRecording,   ///< kept .sjrec record/replay bundles
};

/// $SJOIN_ARTIFACT_DIR, or "" when it is unset or empty.
std::string ArtifactDir();

/// The stamp prepended to (or sidecar'd next to) every artifact:
///   "# sjoin-artifact schema=1 kind=<kind> name=<name>\n"
///   "# config: <config_summary>\n"
std::string ArtifactHeader(ArtifactKind kind, std::string_view name,
                           std::string_view config_summary);

/// Writes `<ArtifactDir()>/<name>`. Text artifacts are stamped inline;
/// names ending in ".json" or ".sjrec" are written byte-exact with the
/// header in a `<name>.meta` sidecar. Returns false when no artifact dir is
/// configured or the file cannot be created.
bool WriteArtifact(ArtifactKind kind, const std::string& name,
                   const std::string& content,
                   std::string_view config_summary = {});

}  // namespace sjoin::obs
