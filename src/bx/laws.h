#ifndef MEDSYNC_BX_LAWS_H_
#define MEDSYNC_BX_LAWS_H_

#include "bx/lens.h"

namespace medsync::bx {

/// Mechanical checkers for the round-tripping laws of Section II-B of the
/// paper. The property tests sweep these across random sources, views, and
/// lens compositions; SyncManager can also run them online (paranoid mode)
/// before committing a put result.

/// GetPut: Put(S, Get(S)) == S. Returns FailedPrecondition with a diff
/// summary if violated, the underlying error if get/put themselves fail.
Status CheckGetPut(const Lens& lens, const relational::Table& source);

/// PutGet: Get(Put(S, V)) == V. `view` must be a valid (possibly edited)
/// view for the lens. If Put rejects the update as untranslatable, that is
/// reported as OK-but-rejected via the `rejected` out-parameter (rejecting
/// is law-preserving); pass nullptr to treat rejection as failure.
Status CheckPutGet(const Lens& lens, const relational::Table& source,
                   const relational::Table& view, bool* rejected);

}  // namespace medsync::bx

#endif  // MEDSYNC_BX_LAWS_H_
