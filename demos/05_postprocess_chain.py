"""
Diversity subsampling and decontamination
=========================================

Raw generations are overcomplete and repetitive. The chain is: exact dedup,
tf-idf vectorization, truncated SVD, minibatch k-means, then round-robin
draws across clusters so every region of the space is represented. Finally,
anything sharing a normalized 13-gram with the evaluation set is removed.
"""

from softsrv import (
    decontaminate,
    dedup_exact,
    diverse_subsample,
    minibatch_kmeans,
    normalize_tokens,
    svd_reduce,
    tfidf_vectorize,
)

# two topic clusters plus duplicates
docs = (
    [f"Ava counted {i} apples in the basket." for i in range(2, 14)]
    + [f"The boat carried {i} crates down the river." for i in range(2, 14)]
    + ["Ava counted 2 apples in the basket."] * 6
)
print(f"{len(docs)} raw docs, {len(dedup_exact(docs))} after dedup")

unique = [docs[i] for i in dedup_exact(docs)]
matrix = tfidf_vectorize(unique)
print("tf-idf matrix:", matrix.shape, "vocabulary", len(matrix.vocabulary))

reduced = svd_reduce(matrix, 4)
assignment = minibatch_kmeans(reduced, k=2, batch_size=8, iterations=20, seed=41)
print("cluster sizes:", [int((assignment.labels == c).sum()) for c in range(2)])

# the whole chain in one call: 8 picks, balanced across the two topics
picked = diverse_subsample(docs, 8, svd_dims=4, k=2, seed=42)
for i in picked[:4]:
    print("  picked:", docs[i])

# decontamination: case, digits and punctuation never hide an overlap
print()
print("normalized:", normalize_tokens("Ava counted 2 apples, right?!"))
reference = ["one two three four five six seven eight nine ten eleven twelve thirteen"]
overlapping = "start one two three four five six seven eight nine ten eleven twelve thirteen end"
shorter = " ".join(reference[0].split()[:12])
kept, removed = decontaminate([overlapping, shorter], reference, n=13)
print(f"13-gram overlap removed: {len(removed)}, 12-gram overlap kept: {len(kept)}")
