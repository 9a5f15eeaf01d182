(* Membership is a mark array shared by every set of the domain: the
   current set owns the marks equal to its tag, and each [create] takes
   a fresh tag, so no set is ever cleared and a set made for the same
   [self] earlier leaves no marks behind. *)
type marks = {
  mutable mark : int array; (* indexed by target; grows on demand *)
  mutable latest : int; (* tag of the one live set *)
}

let marks = Domain.DLS.new_key (fun () -> { mark = [||]; latest = 0 })

type t = {
  self : int;
  tag : int;
  marks : marks;
  mutable targets : int list; (* reversed insertion order *)
  mutable count : int;
}

let create ~self =
  let marks = Domain.DLS.get marks in
  marks.latest <- marks.latest + 1;
  { self; tag = marks.latest; marks; targets = []; count = 0 }

let live t =
  if t.tag <> t.marks.latest then invalid_arg "Link_set: set used after a later Link_set.create"

let marked t target =
  target >= 0 && target < Array.length t.marks.mark && t.marks.mark.(target) = t.tag

let mem t target =
  live t;
  marked t target

let add t target =
  live t;
  if target < 0 then invalid_arg "Link_set.add: negative target";
  if target <> t.self && not (marked t target) then begin
    let m = t.marks in
    if target >= Array.length m.mark then begin
      let grown = Array.make (max (target + 1) (2 * Array.length m.mark)) 0 in
      Array.blit m.mark 0 grown 0 (Array.length m.mark);
      m.mark <- grown
    end;
    m.mark.(target) <- t.tag;
    t.targets <- target :: t.targets;
    t.count <- t.count + 1
  end

let to_array t =
  let out = Array.make t.count t.self in
  let rec fill i = function
    | [] -> ()
    | x :: rest ->
        out.(i) <- x;
        fill (i - 1) rest
  in
  fill (t.count - 1) t.targets;
  out
