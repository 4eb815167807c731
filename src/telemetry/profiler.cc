#include "telemetry/profiler.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "telemetry/json.h"
#include "telemetry/recorder_state.h"

namespace xtalk::telemetry {

namespace {

using internal::FrameNode;

/** Merge @p src into @p dst by name, recursively. */
void
MergeInto(ProfileNode* dst, const FrameNode& src)
{
    dst->calls += src.calls;
    dst->inclusive_us += src.inclusive_us;
    for (const auto& [name, child] : src.children) {
        auto it = std::find_if(
            dst->children.begin(), dst->children.end(),
            [&](const ProfileNode& n) { return n.name == name; });
        if (it == dst->children.end()) {
            dst->children.push_back(ProfileNode{name, 0, 0.0, 0.0, {}});
            it = std::prev(dst->children.end());
        }
        MergeInto(&*it, *child);
    }
}

void
FinalizeNode(ProfileNode* node)
{
    std::sort(node->children.begin(), node->children.end(),
              [](const ProfileNode& a, const ProfileNode& b) {
                  return a.name < b.name;
              });
    double child_inclusive = 0.0;
    for (ProfileNode& child : node->children) {
        FinalizeNode(&child);
        child_inclusive += child.inclusive_us;
    }
    node->exclusive_us = std::max(0.0, node->inclusive_us - child_inclusive);
}

void
WriteNodeJson(JsonWriter* w, const ProfileNode& node)
{
    w->BeginObject();
    w->Key("name").String(node.name);
    w->Key("calls").Number(node.calls);
    w->Key("inclusive_ms").Number(node.inclusive_us / 1000.0);
    w->Key("exclusive_ms").Number(node.exclusive_us / 1000.0);
    w->Key("children").BeginArray();
    for (const ProfileNode& child : node.children) {
        WriteNodeJson(w, child);
    }
    w->EndArray();
    w->EndObject();
}

void
CollectStacks(const ProfileNode& node, const std::string& prefix,
              std::vector<std::string>* lines)
{
    const std::string path =
        prefix.empty() ? node.name : prefix + ";" + node.name;
    const auto rounded =
        static_cast<uint64_t>(std::llround(node.exclusive_us));
    if (rounded > 0) {
        lines->push_back(path + " " + std::to_string(rounded));
    }
    for (const ProfileNode& child : node.children) {
        CollectStacks(child, path, lines);
    }
}

/** Prune @p node's subtree, keeping only nodes on @p live (the open
 *  frame stack) and zeroing the survivors' counters. */
void
PruneNode(FrameNode* node, const std::set<FrameNode*>& live)
{
    node->calls = 0;
    node->inclusive_us = 0.0;
    for (auto it = node->children.begin(); it != node->children.end();) {
        if (live.count(it->second.get())) {
            PruneNode(it->second.get(), live);
            ++it;
        } else {
            it = node->children.erase(it);
        }
    }
}

/** Merge every slot's tree under a "process" root; @p threads (if
 *  non-null) receives the number of slots that contributed frames. */
ProfileNode
MergedTree(size_t* threads)
{
    internal::State& state = internal::GlobalState();
    ProfileNode root{"process", 1, 0.0, 0.0, {}};
    size_t contributing = 0;
    {
        std::lock_guard<std::mutex> lock(state.mu);
        root.inclusive_us =
            internal::Micros(internal::Clock::now() - state.profile_epoch);
        for (internal::Slot& slot : state.slots) {
            std::lock_guard<std::mutex> slot_lock(slot.mu);
            // The sentinel's own counters are always zero, so merging it
            // adds only its children to the root.
            MergeInto(&root, slot.tree);
            contributing += slot.tree.children.empty() ? 0 : 1;
        }
    }
    FinalizeNode(&root);
    if (threads != nullptr) {
        *threads = contributing;
    }
    return root;
}

}  // namespace

ProfileNode
ProfileSnapshot()
{
    return MergedTree(nullptr);
}

std::string
ProfileJson()
{
    size_t threads = 0;
    const ProfileNode root = MergedTree(&threads);
    JsonWriter w;
    w.BeginObject();
    w.Key("schema").String("xtalk.profile.v1");
    w.Key("enabled").Bool(ProfilingEnabled());
    w.Key("wall_ms").Number(root.inclusive_us / 1000.0);
    w.Key("threads").Number(static_cast<uint64_t>(threads));
    w.Key("root");
    WriteNodeJson(&w, root);
    w.EndObject();
    return w.str();
}

std::string
CollapsedStacks()
{
    const ProfileNode root = ProfileSnapshot();
    std::vector<std::string> lines;
    CollectStacks(root, "", &lines);
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string& line : lines) {
        out += line;
        out += "\n";
    }
    return out;
}

void
ResetProfile()
{
    internal::State& state = internal::GlobalState();
    std::lock_guard<std::mutex> lock(state.mu);
    state.profile_epoch = internal::Clock::now();
    for (internal::Slot& slot : state.slots) {
        std::lock_guard<std::mutex> slot_lock(slot.mu);
        // Nodes on the open-frame stack stay alive (a live ScopedSpan
        // will still exit into them); everything else is dropped.
        const std::set<FrameNode*> live(slot.frames.begin(),
                                        slot.frames.end());
        PruneNode(&slot.tree, live);
    }
}

bool
WriteProfileJson(const std::string& path, std::string* error)
{
    return WriteTextFile(path, ProfileJson() + "\n", error);
}

bool
WriteCollapsedStacks(const std::string& path, std::string* error)
{
    return WriteTextFile(path, CollapsedStacks(), error);
}

}  // namespace xtalk::telemetry
