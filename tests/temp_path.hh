/**
 * @file
 * Per-process temporary file paths for tests.
 *
 * ctest runs each test in its own process, several at once, and a
 * sanitizer build of a suite may run beside it. Every name carries the
 * process id, so two processes never write, truncate or delete each
 * other's files.
 */

#ifndef STATSCHED_TESTS_TEMP_PATH_HH
#define STATSCHED_TESTS_TEMP_PATH_HH

#include <unistd.h>

#include <filesystem>
#include <string>

namespace statsched
{
namespace test
{

/** @return `<temp dir>/statsched_<stem>_<pid>`. */
inline std::string
tempPath(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() /
            ("statsched_" + stem + "_" + std::to_string(::getpid())))
        .string();
}

/** RAII temp file path; removes the file on construction and on
 *  scope exit. */
class TempPath
{
  public:
    explicit TempPath(const std::string &stem) : path_(tempPath(stem))
    {
        std::filesystem::remove(path_);
    }

    ~TempPath() { std::filesystem::remove(path_); }

    TempPath(const TempPath &) = delete;
    TempPath &operator=(const TempPath &) = delete;

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

} // namespace test
} // namespace statsched

#endif // STATSCHED_TESTS_TEMP_PATH_HH
