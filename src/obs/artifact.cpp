#include "obs/artifact.h"

#include <cstdint>
#include <cstdlib>
#include <fstream>

namespace sjoin::obs {

namespace {

const char* KindName(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kChaos: return "chaos";
    case ArtifactKind::kMembership: return "membership";
    case ArtifactKind::kRecording: return "recording";
  }
  return "unknown";
}

bool WriteFile(const std::string& path, std::string_view content) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
  return static_cast<bool>(f);
}

/// Formats whose consumers parse the artifact file itself; stamped via a
/// .meta sidecar instead of an inline header.
bool IsByteExactFormat(std::string_view name) {
  return name.ends_with(".json") || name.ends_with(".sjrec");
}

}  // namespace

std::string ArtifactDir() {
  const char* d = std::getenv("SJOIN_ARTIFACT_DIR");
  return d != nullptr ? d : "";
}

std::string ArtifactHeader(ArtifactKind kind, std::string_view name,
                           std::string_view config_summary) {
  std::string h = "# sjoin-artifact schema=";
  h += std::to_string(kArtifactSchemaVersion);
  h += " kind=";
  h += KindName(kind);
  h += " name=";
  h += name;
  h += "\n# config: ";
  h += config_summary;
  h += '\n';
  return h;
}

bool WriteArtifact(ArtifactKind kind, const std::string& name,
                   const std::string& content,
                   std::string_view config_summary) {
  const std::string dir = ArtifactDir();
  if (dir.empty()) return false;
  const std::string header = ArtifactHeader(kind, name, config_summary);
  const std::string path = dir + "/" + name;
  if (IsByteExactFormat(name)) {
    return WriteFile(path, content) && WriteFile(path + ".meta", header);
  }
  return WriteFile(path, header + content);
}

}  // namespace sjoin::obs
